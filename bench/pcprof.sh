#!/bin/sh
# A PC-sampling profiler for native executables, for hosts where perf's
# hardware counters are unsupported and gprofng's clock profiler keeps
# only a small fraction of its ticks.
#
#   sh bench/pcprof.sh _build/default/bench/perf/main.exe --workload table2 --seconds 6
#   sh bench/pcprof.sh -f step_vp _build/default/bench/perf/main.exe --workload table2
#
# It builds a small sampler with cc into a temporary directory and loads
# it into CMD with LD_PRELOAD.  Every 200 us of real time (ITIMER_REAL,
# SIGALRM) the sampler records the interrupted program counter; at exit
# it writes the samples that fell in the main executable's code.  The
# script then prints the share of samples per function (nm -n) and per
# source line (addr2line), 25 rows each.  Child processes are sampled
# too, each into its own file; the report covers the process with the
# most samples, so run the program itself, not a script that builds it
# first.  It only reports: nothing checks its output.
#
# Given -f FUNC, it also breaks down the samples of every function
# whose symbol contains that text (camlVm.run_engine_..._step_vp_... for
# "step_vp") by source line, so a hot function's share can be pinned to
# the lines it inlined: within Vm's step_vp, for example, the
# Machine.charge_mem line of machine.ml.  The shares there are of that
# function's samples, not of the whole run.
set -eu
func=
if [ "${1:-}" = "-f" ] && [ $# -ge 2 ]; then
  func=$2
  shift 2
fi
if [ $# -eq 0 ]; then
  echo "usage: sh bench/pcprof.sh [-f FUNC] CMD [ARGS...]" >&2
  exit 2
fi
top=25
dir=$(mktemp -d "${TMPDIR:-/tmp}/pcprof.XXXXXX")
trap 'rm -rf "$dir"' EXIT INT TERM

cat > "$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <libgen.h>
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long *samples, lo = -1UL, hi, bias;
static volatile size_t n;

/* the first object dl_iterate_phdr reports is the main executable */
static int main_text(struct dl_phdr_info *info, size_t size, void *data) {
  (void)size; (void)data;
  bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const ElfW(Phdr) *p = &info->dlpi_phdr[i];
    if (p->p_type == PT_LOAD && (p->p_flags & PF_X)) {
      unsigned long a = bias + p->p_vaddr;
      if (a < lo) lo = a;
      if (a + p->p_memsz > hi) hi = a + p->p_memsz;
    }
  }
  return 1;
}

static void on_alarm(int sig, siginfo_t *si, void *ctx) {
  (void)sig; (void)si;
  unsigned long pc = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
  if (n < MAX_SAMPLES) samples[n++] = pc;
}

__attribute__((constructor)) static void pcprof_start(void) {
  samples = malloc(MAX_SAMPLES * sizeof *samples);
  if (!samples) return;
  dl_iterate_phdr(main_text, NULL);
  struct sigaction sa = {0};
  sa.sa_sigaction = on_alarm;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGALRM, &sa, NULL);
  struct itimerval it = {{0, 200}, {0, 200}};
  setitimer(ITIMER_REAL, &it, NULL);
}

/* the samples go next to this library, into the script's directory */
__attribute__((destructor)) static void pcprof_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_REAL, &off, NULL);
  Dl_info self;
  if (!dladdr((void *)pcprof_stop, &self)) return;
  char lib[4096], path[4096];
  snprintf(lib, sizeof lib, "%s", self.dli_fname);
  snprintf(path, sizeof path, "%s/samples.%d", dirname(lib), (int)getpid());
  FILE *f = fopen(path, "w");
  if (!f) return;
  size_t outside = 0;
  for (size_t i = 0; i < n; i++) {
    if (samples[i] >= lo && samples[i] < hi) fprintf(f, "%lu\n", samples[i] - bias);
    else outside++;
  }
  fprintf(f, "outside %lu\n", (unsigned long)outside);
  fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

exe=$(command -v "$1")
status=0
LD_PRELOAD=$dir/sampler.so "$@" >&2 || status=$?

best=$(wc -l "$dir"/samples.* 2>/dev/null | grep -v ' total$' | sort -n | tail -1 | awk '{print $2}')
if [ -z "$best" ]; then
  echo "pcprof: no samples were written" >&2
  exit 1
fi
grep -v '^outside' "$best" | sort -n > "$dir/pcs"
outside=$(awk '/^outside/ {print $2}' "$best")
inside=$(wc -l < "$dir/pcs")
echo "pcprof: $inside samples in $exe, $outside outside it (libraries, kernel entry)"

# per function: walk the sorted samples against the sorted text symbols
nm -n --radix=d "$exe" | awk '$2 ~ /^[tTwW]$/ {print $1, $3}' > "$dir/syms"
awk -v total="$inside" '
  NR == FNR { addr[NR] = $1 + 0; name[NR] = $2; nsym = NR; next }
  { pc = $1 + 0
    while (i < nsym && addr[i + 1] <= pc) i++
    count[i ? name[i] : "?"]++ }
  END { for (f in count) printf "%6.2f%%  %7d  %s\n", 100 * count[f] / total, count[f], f }
' "$dir/syms" "$dir/pcs" | sort -rn | head -n "$top" > "$dir/funcs"
echo
echo "  share  samples  function"
cat "$dir/funcs"

# per source line, via one addr2line pass over the distinct addresses
uniq -c "$dir/pcs" > "$dir/counts"
awk '{printf "%x\n", $2}' "$dir/counts" | addr2line -e "$exe" > "$dir/lines"
echo
echo "  share  samples  source line"
awk -v total="$inside" '
  NR == FNR { c[NR] = $1; next }
  { sub(/ \(discriminator [0-9]+\)/, ""); n = split($0, p, "/"); line[p[n]] += c[FNR] }
  END { for (l in line) printf "%6.2f%%  %7d  %s\n", 100 * line[l] / total, line[l], l }
' "$dir/counts" "$dir/lines" | sort -rn | head -n "$top"

# one function's samples by source line: the same walk over the symbols,
# keeping the samples whose enclosing symbol matches
if [ -n "$func" ]; then
  awk -v want="$func" '
    NR == FNR { addr[NR] = $1 + 0; name[NR] = $2; nsym = NR; next }
    { pc = $1 + 0
      while (i < nsym && addr[i + 1] <= pc) i++
      if (i && index(name[i], want)) print pc }
  ' "$dir/syms" "$dir/pcs" | uniq -c > "$dir/fcounts"
  fn=$(awk '{n += $1} END {print n + 0}' "$dir/fcounts")
  echo
  echo "pcprof: $fn samples in functions matching '$func'"
  if [ "$fn" -gt 0 ]; then
    awk '{printf "%x\n", $2}' "$dir/fcounts" | addr2line -e "$exe" > "$dir/flines"
    echo
    echo "  share  samples  source line (of those samples)"
    awk -v total="$fn" '
      NR == FNR { c[NR] = $1; next }
      { sub(/ \(discriminator [0-9]+\)/, ""); n = split($0, p, "/"); line[p[n]] += c[FNR] }
      END { for (l in line) printf "%6.2f%%  %7d  %s\n", 100 * line[l] / total, line[l], l }
    ' "$dir/fcounts" "$dir/flines" | sort -rn | head -n "$top"
  fi
fi
exit "$status"
