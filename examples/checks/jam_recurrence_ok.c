int a[8][8];
int out[1];
int s;
s = 0;
for (i = 0; i < 8; i++)
  for (j = 0; j < 8; j++)
    s = s * 2 + a[i][j];
out[0] = s;
