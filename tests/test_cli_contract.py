"""The observability flag contract shared by every manifest-writing command.

Each of the eleven commands that writes a run manifest takes the same
``--manifest-out`` / ``--no-manifest`` / ``--metrics-out`` /
``--trace-spans`` group.  One parametrized test drives each command three
times — default paths, ``--manifest-out``, ``--no-manifest`` — and checks
the same contract everywhere.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import shutil

import pytest

from repro.cli import main
from repro.obs import load_manifest, validate_manifest


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """simulate -> train -> publish -> journaled replay, shared read-only."""
    root = tmp_path_factory.mktemp("contract")
    fleet = root / "fleet"
    model = root / "model.pkl"
    journal = root / "journal.jsonl"
    assert main(["simulate", "--out", str(fleet), "--drives", "8", "--days",
                 "200", "--deploy-spread", "100", "--seed", "5", "--quiet",
                 "--no-manifest"]) == 0
    assert main(["train", "--trace", str(fleet), "--model", str(model),
                 "--lookahead", "7", "--seed", "3", "--no-manifest"]) == 0
    assert main(["serve", "replay", "--trace", str(fleet), "--model",
                 str(model), "--journal", str(journal), "--no-manifest"]) == 0
    return {"fleet": fleet, "model": model, "journal": journal}


def _fleet_copy(base, d):
    """A private trace directory: several commands write their default
    manifest next to the trace."""
    return shutil.copytree(base["fleet"], d / "fleet")


def _model_copy(base, d):
    """A private model: `score` writes its default manifest beside it."""
    return shutil.copy(base["model"], d / "model.pkl")


def _serve_run(base, d, monkeypatch, n=64):
    """`serve run` reads its events from stdin."""
    from repro.data.io import iter_drive_days

    rows = itertools.islice(iter_drive_days(base["fleet"] / "records.npz"), n)
    payload = "".join(
        json.dumps({k: v.item() for k, v in r.items()}) + "\n" for r in rows
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    return ["serve", "run", "--model", str(base["model"])], None


# Each case: argv builder (base, run dir, monkeypatch) -> (argv, default
# manifest path or None when the command writes one only on request).
CASES = {
    "simulate": lambda b, d, mp: (
        ["simulate", "--out", str(d / "fleet"), "--drives", "4", "--days",
         "120", "--deploy-spread", "30", "--seed", "4", "--quiet"],
        d / "fleet" / "run_manifest.json",
    ),
    "train": lambda b, d, mp: (
        ["train", "--trace", str(b["fleet"]), "--model", str(d / "m.pkl"),
         "--lookahead", "7", "--seed", "3"],
        d / "m.pkl.manifest.json",
    ),
    "score": lambda b, d, mp: (
        ["score", "--trace", str(b["fleet"]), "--model",
         str(_model_copy(b, d)), "--top", "3"],
        d / "model.pkl.score-manifest.json",
    ),
    "serve publish": lambda b, d, mp: (
        ["serve", "publish", "--model", str(b["model"]), "--registry",
         str(d / "reg"), "--activate"],
        d / "reg" / "publish_manifest.json",
    ),
    "serve replay": lambda b, d, mp: (
        ["serve", "replay", "--trace", str(_fleet_copy(b, d)), "--model",
         str(b["model"])],
        d / "fleet" / "serve_replay_manifest.json",
    ),
    "serve shard": lambda b, d, mp: (
        ["serve", "shard", "--trace", str(b["fleet"]), "--model",
         str(b["model"]), "--shards", "2", "--plane", str(d / "plane")],
        d / "plane" / "serve_shard_manifest.json",
    ),
    "serve bench": lambda b, d, mp: (
        ["serve", "bench", "--drives", "8", "--days", "200", "--seed", "5",
         "--latency-events", "16", "--json-out", str(d / "bench.json")],
        d / "bench.json.manifest.json",
    ),
    "serve run": _serve_run,
    "serve heal": lambda b, d, mp: (
        ["serve", "heal", "--model", str(b["model"]), "--journal",
         str(b["journal"]), "--out", str(d / "healed.jsonl")],
        None,
    ),
    "fleet whatif": lambda b, d, mp: (
        ["fleet", "whatif", "--trace", str(_fleet_copy(b, d)), "--model",
         str(b["model"]), "--policy", "threshold"],
        d / "fleet" / "fleet_whatif_manifest.json",
    ),
    "fleet run": lambda b, d, mp: (
        ["fleet", "run", "--trace", str(b["fleet"]), "--model",
         str(b["model"]), "--policy", "threshold", "--out", str(d / "out")],
        d / "out" / "fleet_run_manifest.json",
    ),
}


_PROM_LINE = re.compile(r"^(# (HELP|TYPE) .*|[a-zA-Z_:][\w:]*(\{.*\})? \S+)$")


def _manifests(d):
    return sorted(p.relative_to(d) for p in d.rglob("*manifest*.json"))


@pytest.mark.parametrize("name", list(CASES))
def test_manifest_flag_contract(name, base, tmp_path, monkeypatch, capsys):
    span_flag = "--trace" if name == "simulate" else "--trace-spans"
    for variant in ("default", "manifest_out", "no_manifest"):
        d = tmp_path / variant
        d.mkdir()
        # Manifests a command writes to its working directory land here.
        monkeypatch.chdir(d)
        argv, default = CASES[name](base, d, monkeypatch)
        if variant == "default":
            argv += ["--metrics-out", str(d / "metrics.prom")]
        elif variant == "manifest_out":
            argv += ["--manifest-out", str(d / "chosen.json"), span_flag]
        else:
            argv += ["--no-manifest"]
        assert main(argv) == 0, capsys.readouterr().err
        capsys.readouterr()

        if variant == "default":
            # The default path, or no manifest at all for commands that
            # write one only on request.
            expected = [] if default is None else [default.relative_to(d)]
            assert _manifests(d) == expected
            if default is not None:
                body = load_manifest(default)
                assert validate_manifest(body) == []
                assert "spans" not in body
            # Prometheus text: comments and `name{labels} value` samples
            # (empty when the command records no metric).
            for line in (d / "metrics.prom").read_text().splitlines():
                assert _PROM_LINE.match(line), line
        elif variant == "manifest_out":
            # --manifest-out wins over the default path.
            assert _manifests(d) == []
            body = load_manifest(d / "chosen.json")
            assert validate_manifest(body) == []
            # The full span tree is embedded: every recorded stage has spans.
            assert "spans" in body, f"{span_flag} should embed the span tree"
            assert body["spans"] or not body["stages"]
        else:
            assert _manifests(d) == []
