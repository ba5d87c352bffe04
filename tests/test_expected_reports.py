"""Every shipped config, and hostile copies of some, against the reports
committed under tests/expected/.

Each case runs in process through `cli.main` with a RuntimeWarning raised
as an error, as CI runs the configs.  The committed report is what the CLI
prints; the comparison is not byte for byte, because the byte-identical
guarantee holds within one environment (one Python, one numpy), and CI
installs an unpinned numpy on two Python versions.  It checks the same
keys, the same list lengths, equal strings, booleans and integers, and
every other number within 1e-12 relative.  Below an absolute floor of
1e-14 two numbers count as equal: a residual of rounding size (a group
defect of 1.1e-16, a matching residual of 2e-16) may move by several ulps
of 1 between environments, and 1e-14 is about 45 ulps of 1.

Regenerate the files after a change that moves a report on purpose, and
say in CHANGES.md by how much each moved:

    PYTHONPATH=src python -m tests.test_expected_reports
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import traceback
import warnings

import pytest

from higher_holonomy import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = pathlib.Path(__file__).resolve().parent / "expected"
SHIPPED = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))

REL_TOL = 1e-12
ABS_FLOOR = 1e-14

_BIG = [["1e200*i", "0"], ["0", "-1e200*i"]]


def _diag(entry: str):
    """Put `entry` and its negative on the diagonal of A's first component."""
    def edit(cfg):
        cfg["A"][0][0][0], cfg["A"][0][1][1] = entry, f"-{entry}"
    return edit


# hostile copies of shipped configs: name -> (config, edit of the parsed copy)
HOSTILE = {
    "a_overflow": ("holonomy_su2", _diag("1e200*i*x2")),
    "a_pole": ("holonomy_su2", _diag("0.5*i/(x1-0.5)")),
    "path_pole": ("holonomy_su2",
                  lambda cfg: cfg["geometry"].update(path=["t", "0.01/(t-0.5)"])),
    # beta of scale 1e200, whose squared entries overflow
    "bf_beta_1e200": ("bf_eg_su2", lambda cfg: cfg["B"].update({"3,4": _BIG})),
    # the same on two planes, which makes the action inf
    "bf_report_1e200": ("bf_eg_su2", lambda cfg: cfg["B"].update({"1,2": _BIG, "3,4": _BIG})),
}

# cases whose outcome is not yet the one they should have: that outcome
# (exit code and the start of the one stderr line) and why it is not met;
# regeneration leaves them out, so today's outcome is never pinned
PENDING = {
    "a_pole": (2, "error: /A: ", "ROADMAP item 9: a pole on a sampled point is a "
               "RuntimeWarning traceback from expression evaluation (exit 1)"),
    "path_pole": (2, "error: /geometry/path: ", "ROADMAP item 9: a pole on a sampled point "
                  "is a RuntimeWarning traceback from expression evaluation (exit 1)"),
}


def config_path(name: str, workdir: pathlib.Path) -> pathlib.Path:
    """The config of case `name`: a shipped one, or its hostile copy
    written to `workdir`."""
    if name not in HOSTILE:
        return ROOT / "configs" / f"{name}.json"
    base, edit = HOSTILE[name]
    cfg = json.loads((ROOT / "configs" / f"{base}.json").read_text())
    edit(cfg)
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path


def run_config(path: pathlib.Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the CLI on the config at `path`, in
    process, with a RuntimeWarning raised as an error.  An exception that
    escapes `cli.main` is exit 1 with its traceback on stderr, as the
    interpreter gives it."""
    command = json.loads(path.read_text())["command"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main([command, "--config", str(path)])
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def _differences(got, want, pointer: str = ""):
    """Yield 'pointer: got != want' for every place where the parsed
    reports differ beyond the rules of the module docstring."""
    if isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            yield f"{pointer or '/'}: keys {list(got)} != {list(want)}"
            return
        for key in want:
            yield from _differences(got[key], want[key], f"{pointer}/{key}")
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield f"{pointer}: length {len(got)} != {len(want)}"
            return
        for k, (g, w) in enumerate(zip(got, want)):
            yield from _differences(g, w, f"{pointer}/{k}")
    elif (isinstance(want, float) and isinstance(got, (int, float))
          and not isinstance(got, bool)):
        if not abs(got - want) <= max(REL_TOL * abs(want), ABS_FLOOR):
            yield f"{pointer}: {got!r} != {want!r}"
    elif type(got) is not type(want) or got != want:
        yield f"{pointer}: {got!r} != {want!r}"


def outcome_differences(name: str, code: int, out: str, err: str) -> list:
    """How the outcome of case `name` differs from the committed one."""
    want = json.loads((EXPECTED / "outcomes.json").read_text())[name]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit code {code} != {want['exit']}")
    if err != want["stderr"]:
        problems.append(f"stderr {err!r} != {want['stderr']!r}")
    report = EXPECTED / f"{name}.json"
    if report.exists() and not out:
        problems.append("no report printed")
    elif report.exists():
        problems += _differences(json.loads(out), json.loads(report.read_text()))
    elif out:
        problems.append(f"a report where none is expected: {out[:80]!r}")
    return problems


def _cases():
    for name in SHIPPED + list(HOSTILE):
        if name in PENDING:
            yield pytest.param(name, marks=pytest.mark.xfail(reason=PENDING[name][2],
                                                             strict=True))
        else:
            yield name


@pytest.mark.parametrize("name", _cases())
def test_outcome_is_the_expected_one(name, tmp_path):
    code, out, err = run_config(config_path(name, tmp_path))
    if name in PENDING:
        want_code, prefix, _ = PENDING[name]
        assert code == want_code
        assert err.startswith(prefix) and err.count("\n") == 1
        return
    problems = outcome_differences(name, code, out, err)
    assert not problems, f"{name}: " + "; ".join(problems)


def main() -> int:
    """Rewrite tests/expected/ from the current code: one report per case
    that prints one, and outcomes.json with every exit code and stderr."""
    EXPECTED.mkdir(exist_ok=True)
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SHIPPED + list(HOSTILE):
            if name in PENDING:
                continue
            code, out, err = run_config(config_path(name, pathlib.Path(tmp)))
            outcomes[name] = {"exit": code, "stderr": err}
            report = EXPECTED / f"{name}.json"
            if out:
                report.write_text(out)
            elif report.exists():
                report.unlink()
            print(f"{name}: exit {code}{', report' if out else ''}", file=sys.stderr)
    (EXPECTED / "outcomes.json").write_text(json.dumps(outcomes, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
