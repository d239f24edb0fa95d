#!/usr/bin/env bash
# Reachability lint: which library functions does nothing that ships reach?
#
#   tools/lint_reachability.sh <scratch-dir>
#
# Compiles src/, every example and the benchmark program (perfbench/src)
# at -O0 with one section per function, then links each of those 13
# binaries against every library object file with --gc-sections
# --print-gc-sections.  A function whose section every link discards is
# unreached.  Only strong (nm T/t) functions in namespace vrdf count:
# lambdas, anonymous-namespace helpers, static initialisers and std::
# instantiations are dropped; overloads count once.  Inline functions
# never get a strong definition, so the lint cannot see them.
#
# The objects are linked one by one, not through libvrdf.a: an archive
# member that nothing references never reaches the linker, so its
# functions would never be listed as discarded.
#
# The unreached functions are compared with tools/reachability_allow.txt:
# one entry a line, either a qualified function name (vrdf::io::to_dot) or
# a source file (src/sim/steady_state.cpp, every function in it kept),
# followed by its reason.  '#' starts a comment line.
#
# Exits 1 naming every unreached function that is not allowed and every
# allowlist line whose function or file is now reached or no longer
# exists; 0 otherwise.  Writes objects, binaries and linker logs under
# <scratch-dir>.
set -euo pipefail

if [ "$#" -ne 1 ]; then
  echo "usage: $0 <scratch-dir>" >&2
  exit 2
fi
mkdir -p "$1"
out=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

cxx=${CXX:-g++}
jobs=$(nproc 2>/dev/null || echo 2)
[ "$jobs" -gt 4 ] && jobs=4
export cxx out
flags="-std=c++20 -O0 -ffunction-sections -fdata-sections -Isrc"
export flags

rm -rf "$out/obj" "$out/bin" "$out/gc"
mkdir -p "$out/obj" "$out/bin" "$out/gc"

# One object per source, named after its path (src/io/dot.cpp ->
# src__io__dot.o) so the linker's log maps a section back to its file.
compile() {
  local src=$1
  local obj="$out/obj/$(echo "${src%.cpp}" | sed 's|/|__|g').o"
  $cxx $flags -c "$src" -o "$obj"
}
export -f compile
{ find src -name '*.cpp'; ls examples/*.cpp perfbench/src/*.cpp; } \
  | sort | xargs -P "$jobs" -I{} bash -c 'compile {}'

lib_objs=("$out"/obj/src__*.o)
link() {
  local name=$1
  shift
  $cxx "$@" "${lib_objs[@]}" -pthread -Wl,--gc-sections,--print-gc-sections \
    -o "$out/bin/$name" 2> "$out/gc/$name.log"
}
for ex in examples/*.cpp; do
  name=$(basename "${ex%.cpp}")
  link "example_$name" "$out/obj/examples__$name.o"
done
link vrdf_bench "$out"/obj/perfbench__src__*.o
binaries=$(ls "$out/gc" | wc -l)

# Strong symbols of every library object: "<symbol> <object>".
for obj in "${lib_objs[@]}"; do
  nm --defined-only "$obj" | awk -v o="$(basename "$obj")" '$2 ~ /^[Tt]$/ { print $3, o }'
done | sort -u > "$out/strong.txt"

python3 - "$out" "$binaries" tools/reachability_allow.txt <<'PY'
import os
import re
import subprocess
import sys

out, binaries, allow_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]

def source_of(obj):
    return obj[:-2].replace("__", "/") + ".cpp"

strong = {}
for line in open(os.path.join(out, "strong.txt")):
    sym, obj = line.split()
    strong[sym] = source_of(obj)

removed = re.compile(r"removing unused section '\.text\.(\S+)' in file '.*/(src__[^/']+\.o)'")
discards = {}
for log in os.listdir(os.path.join(out, "gc")):
    seen = set()
    for line in open(os.path.join(out, "gc", log)):
        m = removed.search(line)
        if m and m.group(1) in strong:
            seen.add(m.group(1))
    for sym in seen:
        discards[sym] = discards.get(sym, 0) + 1

def demangle(symbols, *flags):
    text = "\n".join(symbols)
    res = subprocess.run(["c++filt", *flags], input=text, capture_output=True,
                         text=True, check=True)
    return res.stdout.split("\n")[: len(symbols)]

OPERATORS = ["operator<=>", "operator<<=", "operator>>=", "operator<<",
             "operator>>", "operator<=", "operator>=", "operator<",
             "operator>", "operator->"]

def function_name(full, bare):
    """The qualified vrdf:: name of a function, or None if it is not one."""
    if any(t in full for t in ("(anonymous namespace)", "{lambda", "{unnamed")):
        return None
    name = re.sub(r"\[abi:[^\]]*\]", "", bare)
    for i, op in enumerate(OPERATORS):
        name = name.replace(op, f"@{i}@")
    depth, flat = 0, []
    for ch in name:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0:
            flat.append(ch)
    name = "".join(flat)
    starts = [m.start() for m in re.finditer(r"(?:^| )vrdf::", name)]
    if not starts:
        return None
    name = name[starts[-1]:].strip()
    if re.search(r"(?<!operator) ", name):
        return None
    for i, op in enumerate(OPERATORS):
        name = name.replace(f"@{i}@", op)
    return name

symbols = sorted(strong)
names = {}
for sym, full, bare in zip(symbols, demangle(symbols), demangle(symbols, "-p")):
    name = function_name(full, bare)
    if name is not None:
        names[sym] = name

# A name is unreached if any of its overloads is; overloads count once.
unreached = {}   # name -> sources of its unreached overloads
everywhere = {}  # name -> sources of all its overloads
for sym, name in names.items():
    everywhere.setdefault(name, set()).add(strong[sym])
    if discards.get(sym, 0) == binaries:
        unreached.setdefault(name, set()).add(strong[sym])

allowed_names, allowed_files, problems = {}, {}, []
for number, raw in enumerate(open(allow_path), 1):
    line = raw.strip()
    if not line or line.startswith("#"):
        continue
    entry, _, reason = line.partition(" ")
    if not reason.strip():
        problems.append(f"{allow_path}:{number}: '{entry}' gives no reason")
    elif entry.endswith(".cpp"):
        allowed_files[entry] = number
    else:
        allowed_names[entry] = number

sources = set(strong.values())
for entry, number in sorted(allowed_files.items(), key=lambda e: e[1]):
    if entry not in sources:
        problems.append(f"{allow_path}:{number}: {entry} no longer exists")
    elif not any(entry in files for files in unreached.values()):
        problems.append(f"{allow_path}:{number}: every function in {entry} is now reached")
for entry, number in sorted(allowed_names.items(), key=lambda e: e[1]):
    if entry not in everywhere:
        problems.append(f"{allow_path}:{number}: {entry} no longer exists")
    elif entry not in unreached:
        problems.append(f"{allow_path}:{number}: {entry} is now reached")

for name, files in sorted(unreached.items()):
    if name in allowed_names or any(f in allowed_files for f in files):
        continue
    problems.append(f"unreached: {name} ({', '.join(sorted(files))})")

print(f"reachability: {binaries} binaries, {len(everywhere)} vrdf functions, "
      f"{len(unreached)} unreached, {len(allowed_names) + len(allowed_files)} allowlist entries")
for p in problems:
    print(p)
sys.exit(1 if problems else 0)
PY
