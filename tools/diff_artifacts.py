"""Compare the artifacts that two checkouts write, byte for byte.

    python3 tools/diff_artifacts.py PARENT CHANGE

Runs each verb below once in each checkout (``python -m breather.cli``
with that checkout's ``src`` first on ``PYTHONPATH``), each into its own
temporary directory, then compares the two trees of every verb.  Prints
every file whose bytes differ or that only one side wrote, and exits 1 if
there is any; exits 2 if a verb fails in either checkout; else prints how
many files were compared and exits 0.
"""

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile

VERBS = {
    "spectrum": ["spectrum", "--winding", "--delta0", "--t-schedule",
                 "21,201"],
    "eigen": ["eigen"],
    "breather": ["breather"],
    "breather-analytic": ["breather", "--solver", "analytic", "--nu-max",
                          "6"],
    "converge": ["converge"],
    "check": ["check", "--drude-demo", "--sweep-nu", "8"],
}


def run(root, argv, out):
    """Run one verb from the checkout at root, writing into out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-m", "breather.cli", *argv, "--out", out],
        cwd=root, env=env, capture_output=True, text=True)


def files_under(top):
    """Paths of all files below top, relative to it."""
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    differ, compared, failed = [], 0, False
    with tempfile.TemporaryDirectory() as tmp:
        for verb, argv_ in VERBS.items():
            outs = {}
            for side, root in roots.items():
                outs[side] = os.path.join(tmp, side, verb)
                res = run(root, argv_, outs[side])
                if res.returncode != 0:
                    failed = True
                    print(f"{verb}: exit {res.returncode} in {side}\n"
                          f"{res.stderr.strip()}")
            files = {side: files_under(out) for side, out in outs.items()}
            for name in sorted(files["parent"] | files["change"]):
                path = os.path.join(verb, name)
                if name not in files["parent"] or name not in files["change"]:
                    side = "change" if name in files["change"] else "parent"
                    differ.append(f"{path} (only in {side})")
                    continue
                compared += 1
                if not filecmp.cmp(os.path.join(outs["parent"], name),
                                   os.path.join(outs["change"], name),
                                   shallow=False):
                    differ.append(path)
    for path in differ:
        print(f"differs: {path}")
    if failed:
        return 2
    if differ:
        return 1
    print(f"{compared} files compared over {len(VERBS)} verbs: all "
          "identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
