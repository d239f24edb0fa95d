#!/usr/bin/env bash
# Runs every example binary in build/ and checks its output against
# tests/golden, byte for byte.
#
#   tools/run_examples.sh <out-dir>
#
# Run it from anywhere after building into build/.  It writes the CI
# models (ci-*.txt) and every output into <out-dir>, then:
#  - feeds example_vrdf_sizer five models, diffing its --dot, --annotate
#    and --report output against tests/golden/<model>.{dot,annotated.txt,md}
#    and checking its --trace-csv traces against tests/golden/ci-trace.sha256;
#  - asserts that an arithmetic overflow in --report exits 1 and that bad
#    numeric flags exit 2;
#  - runs example_vrdf_fleet (its output carries timings, so it is not
#    diffed);
#  - diffs every other example's stdout against
#    tests/golden/example-<name>.txt.
# Exits non-zero on the first difference or unexpected exit status.
set -eo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <out-dir>" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

cat > "$out/ci-model.txt" <<'EOF'
vrdf-chain v1
actor producer rho=0.001
actor consumer rho=0.002
buffer producer -> consumer pi={3} gamma=[0,2]
constraint consumer period=0.004
EOF
cat > "$out/ci-interior.txt" <<'EOF'
vrdf-chain v1
actor source rho=0.02
actor dec rho=0.01
actor dsp rho=0.005
actor render rho=0.01
actor sink rho=0.04
buffer source -> dec pi={4} gamma={0,1,2}
buffer dec -> dsp pi={2} gamma={1}
buffer dsp -> render pi={1} gamma=[2,4]
buffer render -> sink pi=[0,2] gamma={8}
constraint dsp period=0.005
EOF
cat > "$out/ci-cyclic.txt" <<'EOF'
vrdf-chain v1
actor src rho=4/25
actor dec rho=2/25
actor present rho=1/25
actor rctl rho=1/25
buffer src -> dec pi={4} gamma={2}
buffer dec -> present pi={2} gamma={0,1}
buffer dec -> rctl pi={2} gamma={1} capacity=12 delta=12
buffer rctl -> src pi={1} gamma={4}
constraint present period=1/25
EOF
cat > "$out/ci-av.txt" <<'EOF'
vrdf-chain v1
actor src rho=1/50
actor demux rho=1/100
actor adec rho=3/200
actor vdec rho=1/25
actor apresent rho=3/200
actor vpresent rho=1/25
buffer src -> demux pi={4} gamma={0,1,2}
buffer demux -> adec pi={2} gamma={3}
buffer demux -> vdec pi={2} gamma={8}
buffer adec -> apresent pi={3} gamma={3}
buffer vdec -> vpresent pi={8} gamma={8}
constraint apresent period=3/200
constraint vpresent period=1/25
EOF
# Coprime 65537/65539 rho denominators put the tick scale above
# its cap, so this model's verify runs on exact Rational time.
cat > "$out/ci-rational.txt" <<'EOF'
vrdf-chain v1
actor producer rho=50/65537
actor consumer rho=30/65539
buffer producer -> consumer pi={3} gamma=[0,2]
constraint consumer period=1/1000
EOF
# ~7-digit prime denominators overflow the exact arithmetic of
# the robustness margins.
cat > "$out/ci-overflow.txt" <<'EOF'
vrdf-chain v1
actor producer rho=1/9999991
actor consumer rho=1/9999973
buffer producer -> consumer pi={3} gamma=[0,2]
constraint consumer period=1/1000
EOF

models="$out/ci-model.txt $out/ci-interior.txt $out/ci-av.txt $out/ci-rational.txt $out/ci-cyclic.txt"
for exe in build/example_*; do
  echo "== $exe"
  if [ "$(basename "$exe")" = "example_vrdf_sizer" ]; then
    # --dot, --annotate and the verify run's --trace-csv walk every
    # actor and edge in insertion order; each must match the bytes
    # pinned under tests/golden (the traces by sha256, as they run to
    # hundreds of KB).
    for model in $models; do
      name=$(basename "$model" .txt)
      "$exe" "$model" --verify=2000 --dot="$out/$name.dot" \
        --annotate="$out/$name.annotated.txt" \
        --trace-csv="$out/$name.trace.csv" > /dev/null
      diff -u "tests/golden/$name.dot" "$out/$name.dot"
      diff -u "tests/golden/$name.annotated.txt" "$out/$name.annotated.txt"
    done
    manifest="$PWD/tests/golden/ci-trace.sha256"
    (cd "$out" && sha256sum -c "$manifest")
    # --report renders the rate headroom, the robustness margins and the
    # independent checker's verdict end to end; every report must match
    # its golden file byte for byte.
    for model in $models; do
      rm -f "$out/ci-report.md"
      "$exe" "$model" --report="$out/ci-report.md" > /dev/null
      diff -u "tests/golden/$(basename "$model" .txt).md" "$out/ci-report.md"
    done
    # An arithmetic overflow in --report is a reported failure (exit 1),
    # never an abort.
    status=0
    "$exe" "$out/ci-overflow.txt" --report="$out/ci-report.md" > /dev/null 2>&1 || status=$?
    test "$status" -eq 1
    # Bad numeric flags are usage errors (exit 2), never an abort or a
    # silent wrap.
    for flag in --verify=abc --verify=0 --seed=-1; do
      status=0
      "$exe" "$out/ci-model.txt" "$flag" > /dev/null 2>&1 || status=$?
      test "$status" -eq 2
    done
  elif [ "$(basename "$exe")" = "example_vrdf_fleet" ]; then
    # Its output carries wall-clock timings; CI's fleet smoke steps check
    # its verdict lines.
    "$exe" > /dev/null
  else
    # Every other example is deterministic: its stdout must match
    # tests/golden/example-<name>.txt byte for byte.
    name=$(basename "$exe")
    "$exe" > "$out/$name.txt"
    diff -u "tests/golden/example-${name#example_}.txt" "$out/$name.txt"
  fi
done
