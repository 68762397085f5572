"""A standing report-identity gate: the reports of a fixed corpus of command
lines must hash to the digests checked in beside this script.

The script renders its own corpus through ``slitlogic.cli.dispatch``, each
command line as given and with ``--format json``, and feeds one record per
command line into one sha256 per subcommand: the command line, the exit
code and the rendering, with the temporary directory that holds its lattice
files masked. It exits 1 and names the subcommands whose digest differs
from ``identity.sha256``.

    python tools/identity.py            # check against identity.sha256
    python tools/identity.py --update   # rewrite identity.sha256
    python tools/identity.py --list     # one digest per command line

``--list`` prints a digest and the command line per line, so the outputs of
two checkouts can be diffed to find the command lines that changed.

Only text that slitlogic writes itself is hashed. argparse's help and usage
messages and ``json``'s decode errors differ between Python releases, so no
command line of the corpus asks for help, breaks a flag or gives a file that
is not JSON. The package is imported from this checkout's ``src/``, ahead
of any installed copy. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from itertools import permutations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().with_name("identity.sha256")
sys.path.insert(0, str(ROOT / "src"))

from slitlogic import cli  # noqa: E402
from slitlogic.lattice import builtin  # noqa: E402

_MASK = "<tmp>"


def _nogo_corpus() -> list[list[str]]:
    """``nogo`` on every binding of two distinct elements of boolean 1-3,
    chain 1-6 and lantern 1-5, with and without equal priors, and a few
    other interference inputs."""
    corpus = []
    for family, sizes in (("boolean", range(1, 4)), ("chain", range(1, 7)),
                          ("lantern", range(1, 6))):
        for n in sizes:
            ref = f"builtin:{family}:{n}"
            for e1, e2 in permutations(builtin(family, n).elements, 2):
                for priors in ("--equal-priors", "--no-equal-priors"):
                    corpus.append(["nogo", "--lattice", ref, "--bind", f"X1={e1},X2={e2}", priors])
    corpus += [
        ["nogo", "--amp2", "0,0"],
        ["nogo", "--amp2", "0,0", "--allow-degenerate"],
        ["nogo", "--amp1", "-1/2,0", "--amp2", "1/2,0"],
        ["nogo", "--p-or", "1/4", "--p1", "1/2", "--p2", "1/2"],
        ["nogo", "--p-or", "1/4", "--p1", "1/2"],
        ["nogo", "--bind", "X1=a"],
        ["nogo", "--bind", "X1=a,X1=b"],
        ["nogo", "--bind", "X1=a,X2=z"],
        ["nogo", "--lattice", "builtin:boolean:5"],
    ]
    return corpus


def _scan_corpus() -> list[list[str]]:
    """``scan`` over finite systems of 2-12 values and denominators 1-12, 20
    and 50, with and without equal priors, and a few other scenarios."""
    grids = [["--values", str(n)] for n in range(2, 13)]
    grids += [["--denominator", str(d)] for d in (*range(1, 13), 20, 50)]
    corpus = [["scan", *grid, priors]
              for grid in grids for priors in ("--equal-priors", "--no-equal-priors")]
    corpus += [
        ["scan"],
        ["scan", "--values", "3", "--amp2", "0,0", "--allow-degenerate"],
        ["scan", "--values", "5", "--lattice", "builtin:lantern:2", "--bind", "X1=a1,X2=b2"],
        ["scan", "--denominator", "4", "--lattice", "builtin:boolean:3", "--bind", "X1=0,X2=a"],
        ["scan", "--values", "3", "--denominator", "4"],
        ["scan", "--values", "1"],
        ["scan", "--values", "100000"],
        ["scan", "--denominator", "0"],
    ]
    return corpus


def _super_corpus() -> list[list[str]]:
    return [
        ["super"],
        ["super", "--no-equal-priors"],
        ["super", "--lattice", "builtin:lantern:3", "--bind", "X1=a1,X2=b3"],
        ["super", "--lattice", "builtin:chain:4", "--bind", "X1=m1,X2=m3"],
        ["super", "--lattice", "builtin:boolean:3", "--bind", "X1=a,X2=bc"],
        ["super", "--bind", "X1=0,X2=a"],
        ["super", "--amp2", "0,0", "--allow-degenerate"],
    ]


def _random_text(rng: random.Random, connectives: int) -> str:
    """Formula text over X1, X2 and X3 with ``connectives`` connectives, a
    third of its subformulas in parentheses that may not be needed."""
    if connectives == 0:
        text = rng.choice(("X1", "X2", "X3"))
    elif rng.random() < 0.2:
        text = "!" + _random_text(rng, connectives - 1)
    else:
        left = rng.randrange(connectives)
        text = (f"{_random_text(rng, left)} {rng.choice('&|^')} "
                f"{_random_text(rng, connectives - 1 - left)}")
    return f"({text})" if rng.random() < 0.3 else text


def _generated_formulas(count: int = 12, seed: int = 1961) -> tuple[str, ...]:
    """Formulas of 50-400 connectives, each a left-nested xor chain of 2-6
    random subformulas with its operands in redundant parentheses."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        links = rng.randint(2, 6)
        total = rng.randint(50, 400) - (links - 1)
        cuts = sorted(rng.sample(range(total + 1), links - 1))
        sizes = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        texts.append(" ^ ".join(f"(({_random_text(rng, n)}))" for n in sizes))
    return tuple(texts)


# formulas over the atoms X1, X2 and X3; the last two nest deeper than any
# recursive walk could go
_FORMULAS = ("X1", "!X1", "X1 & X2", "X1 | X2", "X1 ^ X2", "(X1 | X2) & !(X1 ^ X2)",
             "!(X1 & (X2 | !X3)) ^ (X1 | X3)", "X1 ^ X2 ^ X1 ^ X3", "!" * 40 + "X1",
             *_generated_formulas(), "(" * 3000 + "X1" + ")" * 3000, "!" * 5000 + "X1")


def _parse_corpus() -> list[list[str]]:
    bad = ("X1 &", "", "(X1", "X1)", "X1 $ X2", "& X1")
    # 1000 levels deep: printed as text, refused as JSON
    deep = "!" * 999 + "X1"
    return [["parse", text] for text in (*_FORMULAS, deep, *bad)]


def _eval_corpus() -> list[list[str]]:
    """``eval`` in its three modes, and the errors that each mode raises."""
    corpus = []
    degrees = "X1=1/3,X2=2/5,X3=3/4"
    elements = "X1=a,X2=b,X3=1"
    for text in _FORMULAS:
        corpus += [
            ["eval", "--formula", text, "--mode", "lukasiewicz", "--assign", degrees],
            ["eval", "--formula", text, "--mode", "super", "--lattice", "builtin:boolean:2",
             "--assign", elements],
            ["eval", "--formula", text, "--mode", "lattice", "--lattice", "builtin:boolean:2",
             "--assign", elements, "--values", "a=1/3,b=undefined"],
        ]
    corpus += [
        ["eval", "--formula", "X1 | X2", "--mode", "lukasiewicz", "--assign", "X1=1,X2=0"],
        ["eval", "--formula", "X1 | X2", "--mode", "lukasiewicz", "--assign", "X1=2,X2=0"],
        ["eval", "--formula", "X1 | X2", "--mode", "lukasiewicz", "--assign", "X1=1e3,X2=0"],
        ["eval", "--formula", "X1 | X2", "--mode", "lukasiewicz", "--assign", "X1=1/2"],
        ["eval", "--formula", "X1", "--mode", "super", "--assign", "X1=a"],
        ["eval", "--formula", "X1", "--mode", "lattice", "--lattice", "builtin:boolean:2",
         "--assign", "X1=a"],
        ["eval", "--formula", "X1 & X2", "--mode", "super", "--lattice", "builtin:lantern:2",
         "--assign", "X1=a1,X2=b1"],
        ["eval", "--formula", "X1", "--mode", "super", "--lattice", "builtin:boolean:2",
         "--assign", "X1=q"],
        ["eval", "--formula", "X1 &", "--mode", "lukasiewicz", "--assign", "X1=1"],
    ]
    return corpus


def _interference_corpus() -> list[list[str]]:
    return [
        ["interference"],
        ["interference", "--amp1", "-1/2,0", "--amp2", "1/2,0"],
        ["interference", "--amp1", "1/3,1/5", "--amp2", "-2/7,1/11"],
        ["interference", "--amp2", "0,0"],
        ["interference", "--p-or", "1/4", "--p1", "1/2", "--p2", "1/2"],
        ["interference", "--p-or", "0", "--p1", "1/3", "--p2", "1/3"],
        ["interference", "--p-or", "1/4", "--p1", "1/2"],
        ["interference", "--amp1", "1/2"],
        ["interference", "--amp1", "0.5,0"],
        ["interference", "--p-or", "2", "--p1", "1/2", "--p2", "1/2"],
    ]


def _lattice_files(directory: Path) -> list[str]:
    """Write lawful and law-breaking lattice files, all of them JSON, to
    ``directory`` and return their paths."""
    relabelled = builtin("lantern", 3).to_dict()
    names = {e: f"p{k}" for k, e in enumerate(reversed(relabelled["elements"]))}
    relabelled = {key: [names[v] if isinstance(v, str) else [names[x] for x in v]
                        for v in values] for key, values in relabelled.items()}
    files = {
        "boolean3": builtin("boolean", 3).to_dict(),
        "chain5": builtin("chain", 5).to_dict(),
        "lantern3-relabelled": relabelled,
        "no-join": {"elements": ["0", "x", "y"], "order": [["0", "x"], ["0", "y"]],
                    "involution": [["0", "x"], ["y", "y"]]},
        "cycle": {"elements": ["0", "a", "1"], "order": [["0", "a"], ["a", "0"], ["a", "1"]],
                  "involution": [["0", "1"], ["a", "a"]]},
        "involution-twice": {"elements": ["0", "a", "1"], "order": [["0", "a"], ["a", "1"]],
                             "involution": [["0", "1"], ["a", "1"]]},
        "involution-short": {"elements": ["0", "a", "1"], "order": [["0", "a"], ["a", "1"]],
                             "involution": [["0", "1"]]},
        "involution-extremes": {"elements": ["0", "a", "1"], "order": [["0", "a"], ["a", "1"]],
                                "involution": [["0", "a"], ["1", "1"]]},
        "unknown-element": {"elements": ["0", "1"], "order": [["0", "z"]],
                            "involution": [["0", "1"]]},
        "duplicates": {"elements": ["0", "0", "1"], "order": [], "involution": []},
        "empty": {"elements": [], "order": [], "involution": []},
        "missing-order": {"elements": ["0", "1"], "involution": [["0", "1"]]},
        "integer-elements": {"elements": [0, 1], "order": [[0, 1]], "involution": [[0, 1]]},
        "short-pair": {"elements": ["0", "1"], "order": [["0"]], "involution": [["0", "1"]]},
        "not-an-object": [1, 2, 3],
    }
    paths = []
    for name, data in files.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        paths.append(str(path))
    return paths


def _lattice_check_corpus(directory: Path) -> list[list[str]]:
    refs = [f"builtin:{family}:{n}" for family, sizes in (
        ("boolean", range(1, 6)), ("chain", range(1, 9)), ("lantern", range(1, 7))) for n in sizes]
    refs += ["builtin:boolean", "builtin:boolean:x", "builtin:pentagon:2", "builtin:chain:0",
             "builtin:chain:1024", "builtin:boolean:11"]
    return [["lattice-check", ref] for ref in (*refs, *_lattice_files(directory))]


def corpus(directory: Path) -> dict[str, list[list[str]]]:
    """The command lines of each subcommand, in order, without a format flag."""
    return {
        "lattice-check": _lattice_check_corpus(directory),
        "parse": _parse_corpus(),
        "eval": _eval_corpus(),
        "interference": _interference_corpus(),
        "nogo": _nogo_corpus(),
        "scan": _scan_corpus(),
        "super": _super_corpus(),
    }


def _record(argv: list[str], mask: str) -> bytes:
    """The bytes hashed for one command line: its words, exit code and
    rendering, each ``mask`` replaced by a fixed marker."""
    report = cli.dispatch(argv)
    head = "\0".join(argv) + f"\0exit {report.exit_code}\0"
    return (head + report.render()).replace(mask, _MASK).encode("utf-8")


def digests(listing=None) -> dict[str, str]:
    """One sha256 per subcommand over its records, in corpus order. Given
    ``listing``, a callable, each command line's own digest and masked words
    are passed to it as they are made."""
    with tempfile.TemporaryDirectory(prefix="identity-") as scratch:
        result = {}
        for command, argvs in corpus(Path(scratch)).items():
            total = hashlib.sha256()
            for argv in argvs:
                for run in (argv, [*argv, "--format", "json"]):
                    record = _record(run, scratch)
                    total.update(len(record).to_bytes(8, "big"))
                    total.update(record)
                    if listing is not None:
                        words = " ".join(run).replace(scratch, _MASK)
                        listing(hashlib.sha256(record).hexdigest(), words)
            result[command] = total.hexdigest()
    return result


def _read(path: Path) -> dict[str, str]:
    found = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, _, command = line.partition("  ")
        found[command] = digest
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--update", action="store_true", help=f"rewrite {DIGESTS.name}")
    mode.add_argument("--list", action="store_true", help="print one digest per command line")
    args = parser.parse_args(argv)
    if args.list:
        digests(lambda digest, words: print(digest, words))
        return 0
    found = digests()
    if args.update:
        DIGESTS.write_text("".join(f"{d}  {c}\n" for c, d in found.items()), encoding="utf-8")
        print(f"wrote {len(found)} digests to {DIGESTS}")
        return 0
    expected = _read(DIGESTS)
    changed = [c for c in found.keys() | expected.keys() if found.get(c) != expected.get(c)]
    for command in found:
        print(f"{'changed' if command in changed else 'ok':8} {command}")
    if changed:
        print(f"reports changed for: {', '.join(sorted(changed))}; diff the --list output "
              "of this checkout and its parent to find the command lines")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
