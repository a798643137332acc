int a[16];
int out[8];
for (i = 0; i < 8; i++) {
  out[i] = a[i] + a[i + 1];
  a[2 * i] = i;
}
