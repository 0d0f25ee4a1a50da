#!/usr/bin/env python3
"""Line- and function-coverage gate over gcov's JSON intermediate format.

Walks a build directory for .gcda counters (written by a --coverage
build after running the test suite), asks gcov for the JSON report of
every translation unit, and aggregates per-source-file line and
function coverage (union across TUs, so a header counts as covered
when ANY test binary executed it).

Two gates run on every invocation, for files under --source-prefix:

- lines: total line coverage must not drop more than --slack
  percentage points (default 2.0) below the checked-in baseline
  (tools/coverage_baseline.json). Refresh the baseline with --update
  after intentionally adding hard-to-cover code, in the same PR.
- functions: every non-template function must have run. A template
  function is one whose name carries a template argument list (the
  log.hpp format instantiations, say): each instantiation is a
  separate function, so only its template's code is judged, through
  the line gate. The only exception is an entry in ALLOWLIST below,
  each with a one-line reason; an entry whose function now runs, or is
  gone, fails the gate too, so the list only shrinks.

--self-test exercises both comparisons with synthetic data (a drop
just past the slack and an unexecuted function must fail) so a broken
gate can never silently pass in CI.

When GITHUB_STEP_SUMMARY is set, a markdown summary (total coverage,
floor, unexecuted functions, ten least-covered files) is appended to
the CI job summary.

Exit status: 0 gate passed, 1 regression / no data / malformed input.
"""

import argparse
import json
import os
import subprocess
import sys

# Non-template functions under src/ allowed to stay unexecuted:
# {gcov demangled name: one-line reason}. The target is an empty
# table: run the function from a test or delete it.
ALLOWLIST = {}


def find_gcda(build_dir):
    out = []
    for root, _dirs, files in os.walk(build_dir):
        out.extend(
            os.path.abspath(os.path.join(root, f))
            for f in files
            if f.endswith(".gcda")
        )
    return sorted(out)


def run_gcov(gcda_batch, build_dir):
    """Returns the parsed JSON documents for one batch of .gcda files."""
    cmd = ["gcov", "--stdout", "--json-format"] + gcda_batch
    proc = subprocess.run(
        cmd,
        cwd=build_dir,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        check=False,
    )
    docs = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            docs.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return docs


def collect_coverage(build_dir, repo_root, source_prefix):
    """Aggregates {source file: {line: hit}} and {(source file,
    demangled function name): runs} under source_prefix."""
    gcda = find_gcda(build_dir)
    if not gcda:
        return {}, {}, 0
    lines_by_file = {}
    spans = {}
    batch = 64
    for i in range(0, len(gcda), batch):
        for doc in run_gcov(gcda[i : i + batch], build_dir):
            for entry in doc.get("files", []):
                path = entry.get("file", "")
                if not os.path.isabs(path):
                    path = os.path.join(build_dir, path)
                rel = os.path.relpath(os.path.normpath(path), repo_root)
                if not rel.startswith(source_prefix):
                    continue
                hits = lines_by_file.setdefault(rel, {})
                for ln in entry.get("lines", []):
                    no = ln.get("line_number")
                    if no is None:
                        continue
                    hits[no] = hits.get(no, 0) + int(
                        ln.get("count", 0)
                    )
                # Constructor/destructor variants share one demangled
                # name: the function ran when any variant did.
                for fn in entry.get("functions", []):
                    key = (rel, fn.get("demangled_name", fn.get("name")))
                    count, first, last = spans.get(
                        key, (0, fn["start_line"], fn["end_line"])
                    )
                    spans[key] = (
                        count + int(fn.get("execution_count", 0)),
                        min(first, fn["start_line"]),
                        max(last, fn["end_line"]),
                    )
    # An optimised build inlines small functions before it instruments
    # them, so the out-of-line copy's entry counter stays at zero while
    # the inlined copies count the function's own lines. A function ran
    # when its entry counter or any line of its body did: the same
    # verdict at -O0 and -O2.
    calls = {}
    for (rel, fn), (count, first, last) in spans.items():
        hits = lines_by_file.get(rel, {})
        body = sum(hits.get(no, 0) for no in range(first, last + 1))
        calls[(rel, fn)] = count + body
    return lines_by_file, calls, len(gcda)


def strip_groups(name, open_ch, close_ch):
    """Drops every balanced open_ch...close_ch group from name."""
    out = []
    depth = 0
    for ch in name:
        if ch == open_ch:
            depth += 1
        elif ch == close_ch and depth:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out)


def is_template(demangled):
    """True when the function's name carries a template argument list.

    Parameter lists (the function's own, an enclosing function's for a
    lambda, `(anonymous namespace)`) and lambda tags are dropped first,
    since their types may name templates; what is left is the
    qualified name, plus a return type for templates only.
    """
    name = demangled.replace("operator()", "operator")
    name = strip_groups(strip_groups(name, "{", "}"), "(", ")")
    for op in ("operator<<=", "operator<<", "operator<=>",
               "operator<=", "operator<"):
        name = name.replace(op, "operator")
    return "<" in name


def function_gate(calls, allowlist):
    """Returns a list of error strings (empty when the gate passes)."""
    errors = []
    for (rel, fn), count in sorted(calls.items()):
        if count == 0 and not is_template(fn) and fn not in allowlist:
            errors.append(f"never executed: {rel}: {fn}")
    ran = {fn for (_rel, fn), count in calls.items() if count > 0}
    known = {fn for (_rel, fn) in calls}
    for fn, reason in sorted(allowlist.items()):
        if not reason.strip():
            errors.append(f"allowlist entry has no reason: {fn}")
        elif fn in ran or fn not in known:
            errors.append(
                f"allowlist entry is stale (function runs or is "
                f"gone): {fn}"
            )
    return errors


def file_pct(hits):
    total = len(hits)
    covered = sum(1 for c in hits.values() if c > 0)
    return covered, total, (100.0 * covered / total if total else 0.0)


def total_pct(lines_by_file):
    covered = sum(
        sum(1 for c in hits.values() if c > 0)
        for hits in lines_by_file.values()
    )
    total = sum(len(hits) for hits in lines_by_file.values())
    return covered, total, (100.0 * covered / total if total else 0.0)


def gate(current, baseline, slack):
    """Returns an error string, or None when the gate passes."""
    floor = baseline - slack
    if current < floor:
        return (
            f"line coverage {current:.2f}% is below the floor "
            f"{floor:.2f}% (baseline {baseline:.2f}% - {slack:.1f})"
        )
    return None


def self_test(slack):
    if function_self_test():
        return 1
    baseline = 90.0
    cases = [
        (baseline, None),
        (baseline - slack + 0.1, None),
        (baseline - slack - 0.1, "fail"),
        (baseline - slack - 10.0, "fail"),
    ]
    for current, expect in cases:
        err = gate(current, baseline, slack)
        if (err is None) != (expect is None):
            print(
                f"self-test FAILED: baseline {baseline} current "
                f"{current} slack {slack} -> {err!r}",
                file=sys.stderr,
            )
            return 1
    print(
        f"self-test passed: a synthetic drop past {slack:.1f} points "
        "and an unexecuted non-template function are detected; "
        "smaller moves, template instantiations and justified "
        "allowlist entries pass"
    )
    return 0


def function_self_test():
    """Returns 1 (after printing why) if the function gate misjudges
    any synthetic case, else 0."""
    plain = "salus::core::Broker::pump()"
    fmt = "void salus::logf<char const*>(salus::LogLevel, char const*, " \
        "char const* const&)"
    vec = "salus::f(std::vector<unsigned char, " \
        "std::allocator<unsigned char> > const&)"
    lam = vec + "::{lambda(int)#1}::operator()(int) const"
    cases = [
        ("an executed function passes", {("src/a.cpp", plain): 3}, {},
         False),
        ("an unexecuted function fails", {("src/a.cpp", plain): 0}, {},
         True),
        ("an unexecuted template instantiation passes",
         {("src/log.hpp", fmt): 0}, {}, False),
        ("template-typed parameters do not make a template",
         {("src/a.cpp", vec): 0}, {}, True),
        ("a lambda in such a function is not a template",
         {("src/a.cpp", lam): 0}, {}, True),
        ("an allowlisted unexecuted function passes",
         {("src/a.cpp", plain): 0}, {plain: "why"}, False),
        ("an allowlist entry without a reason fails",
         {("src/a.cpp", plain): 0}, {plain: " "}, True),
        ("an allowlist entry for a function that runs fails",
         {("src/a.cpp", plain): 1}, {plain: "why"}, True),
    ]
    for what, calls, allow, should_fail in cases:
        if bool(function_gate(calls, allow)) != should_fail:
            print(f"self-test FAILED: {what}", file=sys.stderr)
            return 1
    return 0


def write_summary(pct, floor, baseline, worst, gcda_count, passed,
                  fn_errors):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a") as f:
        state = "passed" if passed else "**FAILED**"
        f.write("## Coverage gate\n\n")
        f.write(
            f"Line coverage **{pct:.2f}%** vs floor {floor:.2f}% "
            f"(baseline {baseline:.2f}%) — {state} "
            f"({gcda_count} .gcda files)\n\n"
        )
        if fn_errors:
            f.write("Function gate:\n\n")
            for err in fn_errors:
                f.write(f"- `{err}`\n")
            f.write("\n")
        f.write("| least-covered files | lines | coverage |\n")
        f.write("|---|---|---|\n")
        for rel, (covered, total, p) in worst:
            f.write(f"| `{rel}` | {covered}/{total} | {p:.1f}% |\n")


def main():
    ap = argparse.ArgumentParser(
        description="Line- and function-coverage gate"
    )
    ap.add_argument("--build-dir", default="build")
    ap.add_argument(
        "--baseline", default="tools/coverage_baseline.json"
    )
    ap.add_argument("--source-prefix", default="src/")
    ap.add_argument(
        "--slack",
        type=float,
        default=2.0,
        help="allowed drop below the baseline, in percentage points",
    )
    ap.add_argument(
        "--update",
        action="store_true",
        help="write the measured coverage as the new baseline",
    )
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.slack)

    repo_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    lines_by_file, calls, gcda_count = collect_coverage(
        args.build_dir, repo_root, args.source_prefix
    )
    if not lines_by_file:
        print(
            f"no coverage data for {args.source_prefix!r} under "
            f"{args.build_dir!r} — build with --coverage and run the "
            "tests first",
            file=sys.stderr,
        )
        return 1

    covered, total, pct = total_pct(lines_by_file)
    per_file = {
        rel: file_pct(hits)
        for rel, hits in lines_by_file.items()
        if hits  # headers with no executable lines are not interesting
    }
    worst = sorted(per_file.items(), key=lambda kv: kv[1][2])[:10]

    print(
        f"line coverage: {pct:.2f}% ({covered}/{total} lines in "
        f"{len(per_file)} files, {gcda_count} .gcda inputs)"
    )
    print("least-covered files:")
    for rel, (c, t, p) in worst:
        print(f"  {p:6.1f}%  {c:>5}/{t:<5}  {rel}")

    if args.update:
        baseline_doc = {
            "line_coverage_pct": round(pct, 2),
            "source_prefix": args.source_prefix,
            "note": "refresh with: tools/coverage_gate.py --update "
            "(coverage build + full ctest first)",
        }
        with open(args.baseline, "w") as f:
            json.dump(baseline_doc, f, indent=2)
            f.write("\n")
        print(f"baseline updated: {args.baseline} = {pct:.2f}%")
        return 0

    try:
        with open(args.baseline) as f:
            baseline = float(json.load(f)["line_coverage_pct"])
    except (OSError, KeyError, ValueError) as e:
        print(f"cannot read baseline: {e}", file=sys.stderr)
        return 1

    err = gate(pct, baseline, args.slack)
    fn_errors = function_gate(calls, ALLOWLIST)
    print(
        f"function coverage: {sum(1 for c in calls.values() if c)}"
        f"/{len(calls)} functions ran, {len(ALLOWLIST)} allowlisted"
    )
    write_summary(
        pct,
        baseline - args.slack,
        baseline,
        worst,
        gcda_count,
        err is None and not fn_errors,
        fn_errors,
    )
    for fn_err in fn_errors:
        print(f"FUNCTION GATE: {fn_err}", file=sys.stderr)
    if err:
        print(f"COVERAGE REGRESSION: {err}", file=sys.stderr)
    if err or fn_errors:
        return 1
    print(
        f"gate passed: {pct:.2f}% >= floor "
        f"{baseline - args.slack:.2f}%, every non-template function "
        "ran or is allowlisted"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
