#!/usr/bin/env bash
# Production-reachability sweep: which library functions does no
# shipped binary reach?
#
# Builds libapollo.a with -ffunction-sections (one .text section per
# function) and links every production executable -- the CLI and
# make_corpus (tools/), the examples/ and the bench/ programs -- with
# --gc-sections and a linker map. A .text section of libapollo.a that
# no map keeps is unreachable. Tests and perfbench are not counted.
#
# Every unreachable, named apollo:: function outside src/ref must be
# listed in tools/reachability.allow with a reason; the sweep exits 1
# on any that is not. Every unreachable section (any name, any file)
# is written to $BUILD_DIR/reach-dead.txt.
#
# Usage: tools/reachability.sh
#   BUILD_DIR   sweep build tree (default: build-reach)
#
# Needs only gcc/binutils (ld map files, readelf, c++filt), cmake and
# python3. It is a second full Release build, so it is not a ctest.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build-reach}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
    "-DCMAKE_CXX_LINK_EXECUTABLE=<CMAKE_CXX_COMPILER> <FLAGS> \
<CMAKE_CXX_LINK_FLAGS> <LINK_FLAGS> <OBJECTS> -o <TARGET> \
<LINK_LIBRARIES> -Wl,--gc-sections -Wl,-Map=<TARGET>.map" >/dev/null

# Production executables: every target CMake generated under tools/,
# examples/ and bench/, minus the bench helper library.
targets=()
for dir in tools examples bench-build; do
    for d in "$BUILD_DIR/$dir"/CMakeFiles/*.dir; do
        t=$(basename "$d" .dir)
        [[ "$t" == apollo_bench_common ]] && continue
        targets+=(--target "$t")
    done
done
if ! cmake --build "$BUILD_DIR" -j "${targets[@]}" \
        >"$BUILD_DIR/reach-build.log" 2>&1; then
    tail -40 "$BUILD_DIR/reach-build.log"
    exit 1
fi

python3 - "$BUILD_DIR" tools/reachability.allow <<'EOF'
import glob, os, re, subprocess, sys

build, allow_path = sys.argv[1], sys.argv[2]
lib = os.path.join(build, "src", "libapollo.a")
REASONS = {"test-seam", "inlined", "perfbench"}

# Every .text section of every archive member: (member, section) -> size.
# An inline function is emitted as a COMDAT group ("G" flag) in every
# member that uses it; the linker keeps one copy, so such a section is
# reached when any member's copy is kept.
sections, comdat = {}, set()
member = None
out = subprocess.run(["readelf", "-SW", lib], capture_output=True,
                     text=True, check=True).stdout
for line in out.splitlines():
    m = re.match(r"File: .*\((.*)\)$", line)
    if m:
        member = m.group(1)
        continue
    m = re.match(r"\s*\[\s*\d+\]\s+(\.text\S*)\s+\S+\s+\S+\s+\S+"
                 r"\s+(\S+)\s+\S+\s+([A-Z]+)\s", line)
    if m and member:
        sections[(member, m.group(1))] = int(m.group(2), 16)
        if "G" in m.group(3):
            comdat.add(m.group(1))

# Sections some production map keeps. Input sections are listed after
# "Linker script and memory map"; a long name wraps to the next line.
entry = re.compile(r"^ (\.text\S*)\s+0x[0-9a-f]+\s+0x([0-9a-f]+)\s+"
                   r".*libapollo\.a\((.*)\)$", re.M)
maps = glob.glob(os.path.join(build, "**", "*.map"), recursive=True)
kept = set()
for path in maps:
    text = open(path).read()
    text = text[text.find("Linker script and memory map"):]
    text = re.sub(r"^ (\.text\S*)\n\s+", r" \1 ", text, flags=re.M)
    for name, _size, mem in entry.findall(text):
        kept.add((mem, name))

kept_comdat = {name for _, name in kept if name in comdat}
dead = sorted(k for k in sections
              if k not in kept and k[1] not in kept_comdat)

def mangled(section):
    for prefix in (".text.unlikely.", ".text.startup.", ".text.hot.",
                   ".text."):
        if section.startswith(prefix):
            return section[len(prefix):]
    return ""

names = [mangled(s) for _, s in dead]
demangled = subprocess.run(["c++filt"], input="\n".join(names),
                           capture_output=True, text=True,
                           check=True).stdout.splitlines()

def qualified(sig):
    """Name up to its parameter list: 'a::B::f(int) const' -> 'a::B::f'."""
    sig = re.sub(r" \[clone [^]]*\]", "", sig)
    masked = sig.replace("(anonymous namespace)", "#" * 21)
    masked = masked.replace("operator()", "operator##")
    depth = 0
    for i, c in enumerate(masked):
        if c in "<{":
            depth += 1
        elif c in ">}":
            depth -= 1
        elif c == "(" and depth == 0:
            return sig[:i]
    return sig

allow = {}
for n, line in enumerate(open(allow_path), 1):
    line = line.split("#", 1)[0].strip()
    if not line:
        continue
    reason, _, name = line.partition(" ")
    if reason not in REASONS or not name.strip():
        sys.exit(f"{allow_path}:{n}: want '<{'|'.join(sorted(REASONS))}> "
                 f"<apollo::name>'")
    allow[name.strip()] = reason

total = sum(sections.values())
dead_bytes = sum(sections[k] for k in dead)
dead_list = os.path.join(build, "reach-dead.txt")
with open(dead_list, "w") as f:
    for (mem, sec), sig in zip(dead, demangled):
        f.write(f"{sections[(mem, sec)]:6d}  {mem:28s} {sig}\n")
print(f"{len(maps)} production maps; {len(dead)} of {len(sections)} "
      f"libapollo.a .text sections ({dead_bytes // 1024} of "
      f"{total // 1024} KB) kept by no binary, listed in {dead_list}")

missing, listed = [], set()
for (mem, sec), sig in zip(dead, demangled):
    if mem.startswith("reference_") or not sig.startswith("apollo::"):
        continue
    if sig.startswith("apollo::ref::"):
        continue
    name = qualified(sig)
    if name in allow:
        listed.add(name)
    else:
        missing.append((sections[(mem, sec)], mem, sig))

print(f"{len(listed)} allowlisted unreachable apollo:: names outside src/ref")
for name in sorted(set(allow) - listed):
    print(f"note: allowlisted but reached or gone: {name}")
for size, mem, sig in missing:
    print(f"UNREACHABLE {size:6d}  {mem}  {sig}")
if missing:
    print(f"{len(missing)} unreachable apollo:: functions are neither "
          f"reached, moved to src/ref, nor in {allow_path}")
    sys.exit(1)
print("reachability clean")
EOF
