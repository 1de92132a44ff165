import dataclasses
import json

import pytest

from mpseg import cli, fields
from mpseg.config import GenDataConfig, RefineStudyConfig, RunConfig

ENTRY_CONFIGS = (RunConfig, GenDataConfig, RefineStudyConfig)


def paths(cls, prefix=""):
    """(dotted path, Domain) of every field reachable from cls, the
    sections themselves included."""
    for f in dataclasses.fields(cls):
        domain = f.metadata["domain"]
        yield prefix + f.name, domain
        if dataclasses.is_dataclass(domain.kind):
            yield from paths(domain.kind, f"{prefix}{f.name}.")


def test_every_config_field_declares_a_domain():
    reachable = set(ENTRY_CONFIGS)
    for cls in ENTRY_CONFIGS:
        reachable |= {d.kind for _, d in paths(cls) if dataclasses.is_dataclass(d.kind)}
    assert all(issubclass(cls, fields.Checked) for cls in reachable)
    for cls in reachable | set(fields.Checked.__subclasses__()):
        for f in dataclasses.fields(cls):
            assert isinstance(f.metadata.get("domain"), fields.Domain), \
                f"{cls.__name__}.{f.name} declares no domain"


WALK_VALUES = [0, -1, 2 ** 63, 1e308, [], [1, 2, 3], ["a"], "x"]
# run lengths stay uncapped, so at 2**63 they would run for ever
RUN_LENGTHS = {"num_scenes", "train.steps", "count", "instances_per_sigma"}
SMALL_SYNTH = {"height": 8, "width": 8, "feat_dim": 8, "instance_range": [1, 2],
               "size_range": [2, 3]}
VERBS = {
    "train": (RunConfig, {"variant": "mp-all+noises", "num_scenes": 4, "synth": SMALL_SYNTH,
                          "model": {"n_queries": 3, "num_layers": 2, "dim": 8,
                                    "ffn_hidden": 4},
                          "mp": {"n_q": 4}, "train": {"steps": 1}}),
    "gen-data": (GenDataConfig, {"synth": SMALL_SYNTH, "count": 2}),
    "refine-study": (RefineStudyConfig, {"dim": 4, "sigmas": [0.0],
                                         "instances_per_sigma": 2}),
}
# every field of a run config; the top-level keys of the other two verbs
WALK = [(verb, path) for verb, (cls, _) in VERBS.items() for path, _ in paths(cls)
        if verb == "train" or "." not in path]


def with_value(base: dict, path: str, value) -> dict:
    raw = json.loads(json.dumps(base))
    *sections, key = path.split(".")
    node = raw
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return raw


def above_cap(domain):
    """A value above the domain's upper bound, in the field's kind and shape."""
    value = domain.kind(fields.bounds(domain.within)[1] + 1)
    if not domain.many:
        return value
    return [value] * (int(fields.bounds(domain.length)[0]) if domain.length else 1)


def capped(domain) -> bool:
    return isinstance(domain.within, str) and fields.bounds(domain.within)[1] != float("inf")


@pytest.mark.parametrize("verb,path", WALK, ids=[f"{v}:{p}" for v, p in WALK])
def test_boundary_values_exit_with_a_code_and_at_most_one_line(tmp_path, monkeypatch, capsys,
                                                              verb, path):
    monkeypatch.chdir(tmp_path)
    cls, base = VERBS[verb]
    domain = dict(paths(cls))[path]
    values = [v for v in WALK_VALUES if not (path in RUN_LENGTHS and v == 2 ** 63)]
    if capped(domain):
        values.append(above_cap(domain))
    config = tmp_path / "config.json"
    for i, value in enumerate(values):
        config.write_text(json.dumps(with_value(base, path, value)))
        argv = [verb, "--config", str(config)]
        if path not in ("out", "out_dir"):
            argv += ["--out", str(tmp_path / "out")]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO, cli.EXIT_NUMERIC), \
            (value, code, err)
        assert err.count("\n") <= 1 and "Traceback" not in err, (value, err)
        if capped(domain) and i == len(values) - 1:
            assert code == cli.EXIT_CONFIG, (value, err)
