"""Mutation survey: which test notices a deliberate mistake in the model?

Usage (from the repository root)::

    python tools/mutants.py [--only NAME ...] [--out PATH] [-- PYTEST_ARGS ...]

Each mutant of the fixed table below is one exact text replaced in one
file of ``src/ofdmlink/``.  For each, the script copies ``src/``,
``tests/``, ``pyproject.toml`` and ``README.md`` to a temporary directory, applies the
replacement there and runs tier-1 on the copy, stopping at the first
failure, with ``test_golden.py::test_results_match_golden_bytes``
deselected: the golden file kills any mutant that moves a byte, so it says
nothing about whether a test of the model would notice.  Unit files run
before the acceptance criteria, whose campaigns take most of the time.

It records each mutant's first failing test (``survived`` if none) and
wall time, with the machine and the versions, as JSON on stdout or in
``--out``.  An old text that is not found exactly once in its file fails
the script before any mutant runs, so the table cannot rot quietly.
Arguments after ``--`` replace the test selection, e.g.
``-- tests/test_tracker_anchor.py`` to see which mutants one anchor kills.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time

import numpy

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_BYTES = "tests/test_golden.py::test_results_match_golden_bytes"
LAM = "np.maximum(np.diagonal(state.psi, axis1=-2, axis2=-1).real, 0.0)[..., None, None]"
RIDGE = "np.maximum(np.trace(state.psi, axis1=-2, axis2=-1).real / m_r, 0.0)"

# (name, file under src/ofdmlink/, old text, new text, what it breaks)
MUTANTS = [
    ("mse_ce-all-bins", "harness.py",
     "den = np.sum(np.abs(h_true) ** 2, axis=(-3, -2, -1))",
     "den = np.sum(np.abs(h_true_eff) ** 2, axis=(-3, -2, -1))",
     "mse_ce normalized by the channel energy of all bins, not the used bins"),
    ("chi_b-x1.1", "estimation.py", "chi_b = 0.5 * (p1 - p2)", "chi_b = 0.55 * (p1 - p2)",
     "the preamble's difference product scaled by 1.1"),
    ("chi_a-first-symbol", "estimation.py", "chi_a = 0.5 * (p1 + p2)", "chi_a = p1",
     "the direct channel estimate from the first long symbol only"),
    ("lambda-scaling", "estimation.py",
     "p1 = np.take(psi1, b, axis=-2) / pre.lambda1[:, None]\n"
     "    p2 = np.take(psi2, b, axis=-2) / pre.lambda2[:, None]",
     "p1 = np.take(psi1, b, axis=-2) / (2**0.5 * pre.lambda1[:, None])\n"
     "    p2 = np.take(psi2, b, axis=-2) / (2**0.5 * pre.lambda2[:, None])",
     "the preamble products normalized by sqrt(2) lambda, not lambda"),
    ("null-bins-over-N+1", "estimation.py",
     "x.conj() / x.shape[-2]", "x.conj() / (x.shape[-2] + 1)",
     "the null-bin noise-plus-ICI correlation divided by N + 1"),
    ("completion-drops-a-knot", "estimation.py",
     "x = used[sel]\n        cols = np.moveaxis(np.compress(sel, e, axis=-2), -2, 0)",
     "x = used[sel][1:]\n        cols = np.moveaxis(np.compress(sel, e, axis=-2), -2, 0)[1:]",
     "the spline completion ignores each antenna's first knot"),
    ("wiener-2pi", "impairments.py", "np.sqrt(4.0 * np.pi * beta * ts)", "np.sqrt(2.0 * np.pi * beta * ts)",
     "Wiener phase steps of variance 2 pi beta ts, not 4 pi beta ts"),
    ("ceiling-2", "equalization.py", "UPSILON_CEILING = 4.0", "UPSILON_CEILING = 2.0",
     "the tracker refuses updates above 2"),
    ("ceiling-8", "equalization.py", "UPSILON_CEILING = 4.0", "UPSILON_CEILING = 8.0",
     "the tracker keeps updates up to 8"),
    ("ceiling-40", "equalization.py", "UPSILON_CEILING = 4.0", "UPSILON_CEILING = 40.0",
     "the tracker keeps updates up to 40"),
    ("ceiling-inf", "equalization.py", "UPSILON_CEILING = 4.0", "UPSILON_CEILING = float('inf')",
     "the tracker keeps every finite update"),
    ("tracker-lam-x0", "equalization.py", f"lam = {LAM}", f"lam = 0.0 * {LAM}",
     "the tracker's pilot systems unregularized"),
    ("tracker-lam-x0.5", "equalization.py", f"lam = {LAM}", f"lam = 0.5 * {LAM}",
     "the tracker's regularizer halved"),
    ("tracker-lam-x2", "equalization.py", f"lam = {LAM}", f"lam = 2.0 * {LAM}",
     "the tracker's regularizer doubled"),
    ("tracker-lam-tr-psi", "equalization.py", f"lam = {LAM}",
     "lam = np.maximum(np.trace(state.psi, axis1=-2, axis2=-1).real, 0.0)[..., None, None, None]",
     "the tracker regularized by the trace of psi, not its branch's entry"),
    ("mmse-ridge-halved", "equalization.py", f"ridge = {RIDGE}", f"ridge = 0.5 * {RIDGE}",
     "MMSE's ridge tr(psi) / (2 m_r)"),
    ("mmse-ridge-x-m_r", "equalization.py", f"ridge = {RIDGE}", f"ridge = m_r * {RIDGE}",
     "MMSE's ridge tr(psi), not tr(psi) / m_r"),
    ("genie-psi-no-iq-gain", "harness.py",
     "noise = gain * config.n * frames.sigma2[:, None]", "noise = config.n * frames.sigma2[:, None]",
     "the genie noise power without the IQ mixing's noise gain"),
    ("demap-bit1-from-t1", "framing.py",
     "(x < t2) & ~(x < t0)", "(x < t2) & ~(x < t1)",
     "an axis's second bit tested against the middle threshold, not the lowest"),
    ("genie-psi-no-n", "harness.py",
     "noise = gain * config.n * frames.sigma2[:, None]", "noise = gain * frames.sigma2[:, None]",
     "the genie noise power per sample, not per bin (no factor n)"),
]


def tier1_files() -> list[str]:
    """Every tier-1 test file, unit files first and the acceptance criteria last."""
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    return sorted(files, key=lambda f: f.endswith("test_acceptance.py"))


def check_table(mutants) -> None:
    """Fail unless each mutant's old text occurs exactly once in its file."""
    for name, path, old, _, _ in mutants:
        count = (ROOT / "src" / "ofdmlink" / path).read_text().count(old)
        if count != 1:
            sys.exit(f"mutant {name}: old text found {count} times in src/ofdmlink/{path}")


def run_mutant(mutant, pytest_args: list[str]) -> dict:
    name, path, old, new, breaks = mutant
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        for top in ("pyproject.toml", "README.md"):  # the tests read README's config block
            shutil.copy(ROOT / top, tree)
        target = tree / "src" / "ofdmlink" / path
        target.write_text(target.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               "--deselect", GOLDEN_BYTES, *pytest_args]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        seconds = time.monotonic() - t0
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.M)
    if proc.returncode not in (0, 1) and not failed:
        sys.exit(f"mutant {name}: pytest exited with {proc.returncode}\n{proc.stdout[-2000:]}")
    return {"name": name, "file": f"src/ofdmlink/{path}", "breaks": breaks,
            "killed_by": failed[0] if failed else "survived", "seconds": round(seconds, 1)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    extra = argv[argv.index("--") + 1 :] if "--" in argv else None
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    parser.add_argument("--out", help="write the JSON record here instead of stdout")
    args = parser.parse_args(argv[: argv.index("--")] if "--" in argv else argv)
    check_table(MUTANTS)
    names = {m[0] for m in MUTANTS}
    unknown = set(args.only or ()) - names
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.only or m[0] in args.only]
    results = []
    for mutant in chosen:
        results.append(run_mutant(mutant, extra if extra is not None else tier1_files()))
        print(f"{results[-1]['name']}: {results[-1]['killed_by']} ({results[-1]['seconds']} s)",
              file=sys.stderr, flush=True)
    record = {
        "machine": {"platform": platform.platform(), "processor": platform.processor(),
                    "cpus": os.cpu_count()},
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
        "tests": extra if extra is not None else "tier-1, unit files first",
        "deselected": GOLDEN_BYTES,
        "mutants": results,
    }
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
