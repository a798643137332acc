/* Process probes OCaml's Unix library lacks: the child's peak resident
   set size (wait4 rusage) and a monotonic clock. */
#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Reap [pid]; returns (exit code, or 128 + signal number; ru_maxrss in KiB). */
value perf_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status;
  struct rusage ru;
  pid_t r;
  caml_enter_blocking_section();
  do r = wait4(Int_val(vpid), &status, 0, &ru); while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                                : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

double perf_now_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perf_now(value unit) { return caml_copy_double(perf_now_unboxed(unit)); }
