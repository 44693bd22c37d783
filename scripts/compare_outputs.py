"""Check that two checkouts of this repository print the same outputs.

    python3 scripts/compare_outputs.py PARENT CHANGE

In each checkout, with that checkout's own src/ on PYTHONPATH and a fresh
working directory, it runs

    relzeros reproduce --suite all --json       (rows compared without "seconds")
    relzeros reproduce --suite k6 --precision 40
    relzeros roots SPEC [OPTIONS]               (for each entry of ROOTS)
    relzeros poly SPEC                          (for each entry of POLY,
                                                 malformed specs among them)
    relzeros check|poly|roots FILE              (for each graph file of GRAPHS,
                                                 unparsable and disconnected
                                                 ones among them)
    relzeros locus CASE [OPTIONS] --out F       (for each entry of LOCUS,
                                                 rejected arguments among them)

and compares stdout, stderr, exit code and, for locus, the CSV written.
It prints every difference, and every command that wrote a Python
traceback in either checkout (a crash both share compares as equal), and
exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOTS = [
    ["k4:d:30:1"],
    ["k4:d:16:1", "--precision", "53"],
    ["k4:b:1:7", "--precision", "53"],
    ["k4:c:1:4", "--precision", "128"],
    ["k4:d:1:9:sub=3"],
    ["k6:20:20"],
    ["bundle:5", "--lambda", "2"],
    ["cycle:3", "--lambda", "-0.1"],
    # ambiguous at 53 bits: one decides at 106 bits, the other climbs to 1024 and exits 4
    ["k4:c:3:4:sub=2", "--lambda", "2", "--precision", "53"],
    ["k4:d:6:1:sub=2", "--lambda", "2", "--precision", "53"],
]
# the last six exit 2, each with its own message
POLY = ["k4:b", "k6", "k4:b:1:7",
        "k6:1:2:sub=3", "k4:b:1", "k4:b:sub=2", "k4:ab:1:2", "k6:1", "cycle"]
# graph files written into the working directory: K4 in one class, a
# triangle with a doubled edge and a loop (the loop puts a root at v = -1),
# the 22-edge two-class structures of bench/workloads._base_graph(9) and of
# _base_graph(7) (all 21 pairs and one parallel edge: frontier 7, the
# slowest enumeration), that of _base_graph(8) with two more edges in one
# class (24 edges, the enumeration cap), a single vertex (a constant
# polynomial: roots exits 3), two disjoint edges (check prints n/a for
# multivariate-BC, poly and roots exit 3), and three files that fail to
# parse (exit 2)
GRAPHS = {
    "k4.graph": "vertices 4\n0 1 0\n0 2 0\n0 3 0\n1 2 0\n1 3 0\n2 3 0\n",
    "loop.graph": "vertices 3\n0 1 0\n0 1 0\n1 2 0\n2 0 0\n2 2 0\n",
    "sparse_22.graph": ("vertices 9\n2 5 0\n1 6 1\n0 2 1\n1 3 1\n1 8 0\n3 4 0\n5 7 0\n"
                        "2 8 1\n2 7 0\n0 5 1\n0 1 0\n7 8 1\n2 3 1\n1 2 1\n2 4 0\n6 7 1\n"
                        "0 3 0\n1 5 1\n4 8 1\n5 6 1\n0 6 0\n0 8 0\n"),
    "dense_22.graph": ("vertices 7\n3 6 1\n2 5 0\n0 1 1\n0 4 1\n3 4 0\n2 3 1\n4 6 1\n"
                       "1 2 0\n3 5 0\n0 6 1\n0 2 0\n0 3 0\n2 4 0\n2 6 0\n1 6 1\n0 5 1\n"
                       "1 5 0\n1 4 1\n4 5 1\n5 6 1\n1 3 1\n1 6 0\n"),
    "cap_24.graph": ("vertices 8\n3 6 0\n1 6 0\n3 4 0\n2 4 0\n0 7 0\n4 6 0\n1 7 0\n"
                     "1 5 0\n1 4 0\n2 3 0\n3 5 0\n0 4 0\n2 5 0\n4 5 0\n1 3 0\n3 7 0\n"
                     "0 5 0\n4 7 0\n0 1 0\n0 2 0\n2 6 0\n2 7 0\n0 6 0\n5 7 0\n"),
    "one.graph": "vertices 1\n",
    "disconnected.graph": "vertices 4\n0 1 0\n2 3 0\n",
    "no_header.graph": "0 1 0\n",
    "negative.graph": "vertices -1\n",
    "bad_field.graph": "vertices 2\n0 1 x\n",
}
# the transposed run collapses a in mpmath, above 53 bits; the 17-sample k6
# run at 80 bits has 8 samples where (1 + b)^9 = 1 and a coefficient
# vanishes, gaps as at 53 bits (2,000 samples hit only two such points); the
# next three (8,192, 4,096 and 5,000 samples) solve the first 4,096, 2,048
# and 2,500 of them, split across forked workers on a host with two or more
# CPUs, where the default 2,000 samples solve 1,000 in one chunk (on two CPUs
# the 5,000-sample worker sends frames of 512, 512 and 226 samples, the
# others only whole frames); the last two exit 2 and write no CSV
LOCUS = ([[case, "--precision", str(prec)] for case in ("b", "d", "k6") for prec in (53, 80)]
         + [["b", "--sweep", "a", "--precision", "80"],
            ["k6", "--precision", "80", "--samples", "17"],
            ["d", "--lambda", "0.1", "--samples", "8192"],
            ["k6", "--sweep", "a", "--samples", "4096"],
            ["c", "--samples", "5000"],
            ["b", "--samples", "8"], ["b", "--lambda", "0"]])
# exits 2 before any row: the precision is below 53 bits
REPRODUCE_REJECTED = ["reproduce", "--suite", "k6", "--precision", "40"]


def relzeros(checkout, workdir, *args):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "relzeros", *args], cwd=workdir, env=env,
                          capture_output=True, text=True)
    return {"exit_code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}


def outputs(checkout):
    """Every compared output of one checkout, keyed by the command that made it."""
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        key = "reproduce --suite all --json"
        run = relzeros(checkout, workdir, *key.split())
        rows = [json.loads(line) for line in run.pop("stdout").splitlines()]
        for row in rows:
            row.pop("seconds", None)
        out[key] = dict(run, rows=rows)
        out[" ".join(REPRODUCE_REJECTED)] = relzeros(checkout, workdir, *REPRODUCE_REJECTED)
        for args in ROOTS:
            out["roots " + " ".join(args)] = relzeros(checkout, workdir, "roots", *args)
        for spec in POLY:
            out["poly " + spec] = relzeros(checkout, workdir, "poly", spec)
        for name, text in GRAPHS.items():
            Path(workdir, name).write_text(text)
            for command in ("check", "poly", "roots"):
                out[command + " " + name] = relzeros(checkout, workdir, command, name)
        for locus in LOCUS:
            args = ["locus", *locus, "--out", "locus.csv"]
            run = relzeros(checkout, workdir, *args)
            csv = Path(workdir, "locus.csv")
            run["csv"] = csv.read_text() if csv.exists() else None
            csv.unlink(missing_ok=True)
            out[" ".join(args[:-2])] = run
    return out


def differences(key, old, new):
    for field in old.keys() | new.keys():
        a, b = old.get(field), new.get(field)
        if a == b:
            continue
        if field == "rows":
            if len(a) != len(b):
                yield "%s: %d rows -> %d rows" % (key, len(a), len(b))
            for i, (ra, rb) in enumerate(zip(a, b)):
                if ra != rb:
                    yield "%s: row %d\n  - %s\n  + %s" % (key, i, json.dumps(ra), json.dumps(rb))
        elif isinstance(a, str) and isinstance(b, str):
            la, lb = a.splitlines() + ["<end>"], b.splitlines() + ["<end>"]
            i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), None)
            if i is None:
                yield "%s: %s differs in line endings only" % (key, field)
                continue
            j = next((j for j, (x, y) in enumerate(zip(la[i], lb[i])) if x != y),
                     min(len(la[i]), len(lb[i])))
            start = max(0, j - 60)
            yield ("%s: %s differs at line %d, column %d\n  - %s\n  + %s"
                   % (key, field, i + 1, j + 1, la[i][start:j + 60], lb[i][start:j + 60]))
        else:
            yield "%s: %s %r -> %r" % (key, field, a, b)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)
    old, new = outputs(args.parent.resolve()), outputs(args.change.resolve())
    found = [d for key in old for d in differences(key, old[key], new[key])]
    crashed = ["%s: %s wrote a traceback" % (side, key)
               for side, out in (("parent", old), ("change", new))
               for key, run in out.items() if "Traceback" in run["stderr"]]
    for d in found + crashed:
        print(d)
    print("%d commands compared, %d differences, %d tracebacks"
          % (len(old), len(found), len(crashed)))
    return 1 if found or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
