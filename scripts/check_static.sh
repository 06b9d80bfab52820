#!/usr/bin/env bash
# Repo-specific static gates that no off-the-shelf tool enforces:
#
#   1. Lock hygiene      — every mutex/condvar in src/ goes through the
#                          annotated wrappers in common/mutex.h; raw
#                          std::mutex & friends are banned elsewhere, so the
#                          clang thread-safety analysis sees every lock site.
#   2. Hot-path allocs   — `*Into` function bodies in the inference hot
#                          path must not allocate (new / malloc /
#                          make_unique / make_shared). Capacity-reusing
#                          resize/assign on caller-owned buffers is the
#                          sanctioned idiom.
#   3. Bench A/B pairs   — every BM_* kernel benchmark with a scalar
#                          reference twin must be wired into
#                          check_bench.sh's PAIRS table (else the perf
#                          tripwire silently stops covering it), and every
#                          BM_* must be either paired or explicitly
#                          allowlisted as a non-kernel benchmark.
#   4. Test registration — every tests/**/*_test.cc is built and every
#                          add_test entry carries a ctest LABEL, so
#                          `ctest -L <layer>` keeps meaning "the layer's
#                          whole suite".
#   5. Socket hygiene    — raw POSIX socket/file-descriptor/shared-memory
#                          calls (socket/accept/recv/send/read/write/
#                          memfd_create/mmap/ftruncate/futex/...) are
#                          banned outside src/net/: everything goes through
#                          the EINTR-safe wrappers in net/socket.h and the
#                          validated segment lifecycle in net/shm_ring.h.
#                          And the net layer itself must stay SIGPIPE-safe:
#                          every send uses MSG_NOSIGNAL and the daemon
#                          ignores SIGPIPE before serving.
#
# Plus, when a clang++ is on PATH: the thread-safety smoke pair
# (tests/static/) — the ok file must pass -Wthread-safety -Werror, the
# violation file must be rejected. Without clang these two are skipped
# with a notice (CI always runs them; see .github/workflows/ci.yml).
#
# Usage: scripts/check_static.sh   (run from anywhere; repo-rooted)
set -euo pipefail

cd "$(dirname "$0")/.."

python3 - <<'PY'
import glob
import os
import re
import sys

failures = []


def strip_comments(text):
    """Removes // and /* */ comments and string literals (keeps newlines)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '/' and i + 1 < n and text[i + 1] == '/':
            while i < n and text[i] != '\n':
                i += 1
        elif c == '/' and i + 1 < n and text[i + 1] == '*':
            j = text.find('*/', i + 2)
            stop = n if j < 0 else j + 2
            out.append(''.join(ch if ch == '\n' else ' '
                               for ch in text[i:stop]))
            i = stop
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                i += 2 if text[i] == '\\' else 1
            i += 1
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def line_of(text, pos):
    return text.count('\n', 0, pos) + 1


# ---- 1. lock hygiene: raw primitives only inside common/mutex.h ----
RAW_PRIMITIVES = re.compile(
    r'std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable'
    r'|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)'
    r'\b'
    r'|#\s*include\s*<(mutex|shared_mutex|condition_variable)>')

checked = 0
for path in sorted(glob.glob('src/**/*.h', recursive=True) +
                   glob.glob('src/**/*.cc', recursive=True)):
    if path.replace(os.sep, '/') == 'src/common/mutex.h':
        continue
    checked += 1
    text = open(path).read()
    for m in RAW_PRIMITIVES.finditer(strip_comments(text)):
        failures.append(
            f'{path}:{line_of(text, m.start())}: raw `{m.group(0)}` — use '
            f'the annotated wrappers from common/mutex.h')
print(f'check_static[lock-hygiene]: {checked} files clean of raw primitives'
      if not failures else
      f'check_static[lock-hygiene]: scanned {checked} files')

# ---- 2. no allocation inside hot-path *Into bodies ----
HOT_FILES = [
    'src/tensor/ops.cc',
    'src/nn/linear.cc',
    'src/nn/mlp.cc',
    'src/nn/attention.cc',
    'src/nn/set_qnetwork.cc',
    'src/core/state.cc',
    'src/core/aggregator.h',
    'src/core/framework.cc',
    'src/rl/prioritized_replay.cc',
]
# A definition: name ending in `Into`, a `;`/`{`-free parameter list, then
# an opening brace (calls end in `;` instead and never match).
DEFN = re.compile(r'\b(\w+Into)\s*\(([^;{}]*)\)\s*(?:const\s*)?\{', re.S)
ALLOC = re.compile(r'\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\('
                   r'|\bmake_unique\b|\bmake_shared\b')

bodies = 0
for path in HOT_FILES:
    if not os.path.exists(path):
        failures.append(f'{path}: hot-path file missing — update the '
                        f'HOT_FILES list in scripts/check_static.sh')
        continue
    text = strip_comments(open(path).read())
    for m in DEFN.finditer(text):
        depth, i = 1, m.end()
        while i < len(text) and depth > 0:
            depth += {'{': 1, '}': -1}.get(text[i], 0)
            i += 1
        body = text[m.end():i - 1]
        bodies += 1
        for a in ALLOC.finditer(body):
            failures.append(
                f'{path}:{line_of(text, m.end() + a.start())}: '
                f'`{a.group(0).strip()}` inside hot-path {m.group(1)}() — '
                f'*Into functions must reuse caller-owned capacity')
print(f'check_static[hot-alloc]: {bodies} *Into bodies allocation-free')

# ---- 3. bench A/B pair coverage ----
bench_src = open('bench/micro_benchmarks.cc').read()
bench_names = set(re.findall(r'^\s*void\s+(BM_\w+)\s*\(', bench_src, re.M))
pairs_src = open('scripts/check_bench.sh').read()
pairs = re.findall(r'\(\s*"(BM_\w+)"\s*,\s*"(BM_\w+)"\s*\)', pairs_src)
paired = {name for pair in pairs for name in pair}

# Benchmarks that are deliberately not A/B-gated: end-to-end composites,
# agent/replay/statistics paths with no retained scalar reference.
NON_KERNEL_ALLOWLIST = {
    'BM_SoftmaxRows',
    'BM_AttentionForward',
    'BM_QNetworkForward',
    'BM_QNetworkForwardInto',
    'BM_QNetworkBackward',
    'BM_DqnLearnStep',
    'BM_PrioritizedReplaySample',
    'BM_ArrivalModelRecord',
    'BM_LinUcbScoreAndUpdate',
    'BM_GapHistogramMass',
    'BM_SnapshotPublish',
}

for kernel, ref in pairs:
    for name in (kernel, ref):
        if name not in bench_names:
            failures.append(
                f'scripts/check_bench.sh: PAIRS entry {name} does not exist '
                f'in bench/micro_benchmarks.cc')
for name in sorted(bench_names):
    if name + 'Ref' in bench_names and name not in paired:
        failures.append(
            f'bench/micro_benchmarks.cc: {name} has a {name}Ref twin but '
            f'the pair is not in check_bench.sh PAIRS — the perf tripwire '
            f'does not cover it')
    if name not in paired and name not in NON_KERNEL_ALLOWLIST:
        failures.append(
            f'bench/micro_benchmarks.cc: {name} is neither in check_bench.sh '
            f'PAIRS nor in check_static.sh NON_KERNEL_ALLOWLIST — classify '
            f'it as a gated kernel or an allowlisted composite')
for name in sorted(NON_KERNEL_ALLOWLIST - bench_names):
    failures.append(
        f'scripts/check_static.sh: allowlisted {name} no longer exists in '
        f'bench/micro_benchmarks.cc — prune the allowlist')
print(f'check_static[bench-pairs]: {len(bench_names)} BM_ entries '
      f'({len(paired)} paired, {len(bench_names & NON_KERNEL_ALLOWLIST)} '
      f'allowlisted)')

# ---- 4. every test source built, every ctest entry labeled ----
sources = 0
for cml in sorted(glob.glob('tests/**/CMakeLists.txt', recursive=True)):
    d = os.path.dirname(cml)
    cml_text = open(cml).read()
    for src in sorted(glob.glob(os.path.join(d, '*_test.cc'))):
        sources += 1
        if os.path.basename(src) not in cml_text:
            failures.append(
                f'{src}: test source not referenced by {cml} — it never '
                f'builds or runs')
    for m in re.finditer(r'add_test\s*\(\s*NAME\s+([^\s)]+)', cml_text):
        name = m.group(1)
        labeled = re.search(
            r'set_tests_properties\s*\(\s*' + re.escape(name) +
            r'\s+PROPERTIES[^)]*\bLABELS\b', cml_text)
        if 'crowdrl_add_test' not in cml_text.split(m.group(0))[0][-200:] \
                and not labeled and '${' not in name:
            failures.append(
                f'{cml}: add_test({name}) has no LABELS property — '
                f'`ctest -L <layer>` will not include it')
print(f'check_static[test-registration]: {sources} test sources registered')

# ---- 5. socket hygiene: raw fd I/O only inside src/net/ ----
# Bare-call sites of the POSIX I/O surface. The lookbehind rejects member
# calls (stream.read(...)), qualified names (std::..., base::read) and
# identifier tails (std::thread( ends in "read("), so only the global
# C functions trip the gate.
RAW_IO = re.compile(
    r'(?<![\w:.>])'
    r'(socket|socketpair|accept4?|recv(?:from|msg)?|send(?:to|msg)?'
    r'|read|write|pread|pwrite|readv|writev|connect|bind|listen|shutdown'
    r'|poll|select'
    r'|memfd_create|mmap|munmap|ftruncate|shm_open|shm_unlink|futex)\s*\(')
SOCKET_HEADERS = re.compile(
    r'#\s*include\s*<(sys/socket\.h|sys/un\.h|netinet/[^>]+|arpa/[^>]+'
    r'|poll\.h|sys/select\.h|sys/mman\.h|linux/futex\.h)>')

io_checked = 0
for path in sorted(glob.glob('src/**/*.h', recursive=True) +
                   glob.glob('src/**/*.cc', recursive=True) +
                   glob.glob('bench/**/*.h', recursive=True) +
                   glob.glob('bench/**/*.cc', recursive=True) +
                   glob.glob('examples/**/*.cpp', recursive=True)):
    if path.replace(os.sep, '/').startswith('src/net/'):
        continue
    io_checked += 1
    text = open(path).read()
    stripped = strip_comments(text)
    for m in RAW_IO.finditer(stripped):
        failures.append(
            f'{path}:{line_of(text, m.start())}: raw `{m.group(1)}(` — '
            f'fd/socket I/O outside src/net/ must go through the '
            f'EINTR-safe wrappers in net/socket.h')
    for m in SOCKET_HEADERS.finditer(stripped):
        failures.append(
            f'{path}:{line_of(text, m.start())}: socket/poll header '
            f'include outside src/net/ — use net/socket.h')
print(f'check_static[socket-hygiene]: {io_checked} files clean of raw I/O')

# SIGPIPE safety inside the net layer: a dying client must surface as a
# Status, never a signal. Every send flavor passes MSG_NOSIGNAL, and the
# daemon sets the disposition before serving (belt for third-party fds).
socket_cc = strip_comments(open('src/net/socket.cc').read())
for m in re.finditer(r'(?<![\w:.>])(send(?:to|msg)?)\s*\(([^;]*?);',
                     socket_cc, re.S):
    if 'MSG_NOSIGNAL' not in m.group(2):
        failures.append(
            f'src/net/socket.cc:{line_of(socket_cc, m.start())}: '
            f'{m.group(1)}() without MSG_NOSIGNAL — a dead peer would '
            f'raise SIGPIPE')
if not re.search(r'void\s+IgnoreSigpipe\s*\(', socket_cc):
    failures.append('src/net/socket.cc: IgnoreSigpipe() definition missing')
daemon_cc = strip_comments(open('src/net/learner_daemon.cc').read())
start_body = re.search(r'Status\s+LearnerDaemon::Start\s*\([^)]*\)\s*\{',
                       daemon_cc)
if not start_body or 'IgnoreSigpipe()' not in daemon_cc[start_body.end():
                                                        start_body.end()
                                                        + 2000]:
    failures.append(
        'src/net/learner_daemon.cc: LearnerDaemon::Start() must call '
        'IgnoreSigpipe() before serving')
print('check_static[sigpipe]: net send paths MSG_NOSIGNAL, daemon ignores '
      'SIGPIPE')

if failures:
    print()
    for f in failures:
        print(f'FAIL {f}')
    sys.exit(f'check_static: {len(failures)} finding(s)')
print('check_static: all gates clean')
PY

# ---- clang thread-safety smoke pair (clang-only; CI always has clang) ----
CLANG="${CLANGXX:-clang++}"
if command -v "$CLANG" > /dev/null 2>&1; then
  if ! "$CLANG" -std=c++17 -fsyntax-only -Wthread-safety -Werror -Isrc \
      tests/static/thread_safety_ok.cc; then
    echo "FAIL tests/static/thread_safety_ok.cc must compile clean" >&2
    exit 1
  fi
  if "$CLANG" -std=c++17 -fsyntax-only -Wthread-safety -Werror -Isrc \
      tests/static/thread_safety_violation.cc 2> /dev/null; then
    echo "FAIL tests/static/thread_safety_violation.cc compiled — the" \
         "thread-safety gate is dead (annotations not expanding?)" >&2
    exit 1
  fi
  echo "check_static: clang thread-safety smoke pair ok"
else
  echo "check_static: NOTICE — no clang++ on PATH, thread-safety smoke" \
       "pair skipped (CI runs it; install clang to run locally)"
fi
