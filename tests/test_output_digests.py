import json
import runpy

from abincull.scenario import parse_scenario
from conftest import repo_root


def scenario_digest():
    return runpy.run_path(str(repo_root() / "scripts" / "output_digests.py"))["scenario_digest"]


def test_scenario_digest_ignores_layout_and_key_order(scenarios_dir):
    digest = scenario_digest()
    doc = json.loads((scenarios_dir / "orbit_sinusoidal.json").read_text())
    reordered = json.dumps(dict(reversed(list(doc.items()))), indent=4)
    assert (digest(parse_scenario(reordered))
            == digest(parse_scenario((scenarios_dir / "orbit_sinusoidal.json").read_text())))


def test_scenario_digest_sees_every_parsed_field(scenarios_dir):
    digest = scenario_digest()
    doc = json.loads((scenarios_dir / "smoke.json").read_text())
    base = digest(parse_scenario(json.dumps(doc)))
    changes = [("seed", doc.get("seed", 0) + 1), ("name", "other"),
               ("oracle", {"enabled": True, "lattice": [9, 9, 5]}),
               ("geodetic", {"radius_m": 6e6})]
    for key, value in changes:
        assert digest(parse_scenario(json.dumps(dict(doc, **{key: value})))) != base, key
    pose = parse_scenario(json.dumps(doc)).cameras[0]
    moved = dict(doc, cameras=[{"eye": (pose.eye * 1.5).tolist(),
                                "look_dir": pose.look_dir.tolist(),
                                "up_hint": pose.up_hint.tolist(), "fov_y": pose.fov_y,
                                "aspect": pose.aspect, "near": pose.near,
                                "far": pose.far}])
    assert digest(parse_scenario(json.dumps(moved))) != base
