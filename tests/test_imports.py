"""Start-up cost: ``import tovp`` loads no submodule, and each ``tovp``
command loads only the modules it runs.  Every command runs in a fresh
interpreter, which then reports what ended up in ``sys.modules``."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tovp
from scan_factories import C10_SCENE_YAML
from tovp.extraction import RECORD_DTYPE
from tovp.formats import write_overlap_file, write_probabilities, write_recon_file
from tovp.recon import RECON_DTYPE, ReconSet
from tovp.sensor_model import SensorConfig

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tovp.__file__)))

# modules that some commands load and others must not
OPTIONAL = {"tovp.evaluation", "tovp.extraction", "tovp.geometry", "tovp.objectives",
            "tovp.recon", "tovp.simulator", "yaml", "hashlib"}
EXPECTED = {
    "simulate": {"tovp.simulator", "yaml"},
    "label": set(),
    # eval streams its scans through evaluate, and nothing more
    "eval": {"tovp.evaluation"},
    "stats": {"tovp.evaluation"},
    "extract --help": set(),
    # the block readers take the record layouts and the order rule from
    # extraction (which loads geometry) and recon; the loss walk is objectives'
    "loss-check": {"tovp.objectives", "tovp.extraction", "tovp.geometry"},
    "loss-check --recon": {"tovp.objectives", "tovp.extraction", "tovp.geometry", "tovp.recon"},
}

# runs ``tovp`` with the given arguments, then prints its exit code and the
# loaded module names as the last line of stdout
PROBE = """
import json, sys
from tovp.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def run_python(code, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """command -> the modules of OPTIONAL its process loaded."""
    d = tmp_path_factory.mktemp("imports")
    scene = d / "scene.yaml"
    scene.write_text(C10_SCENE_YAML.replace("count: 32}", "count: 4}")
                     .replace("azimuth_count: 1024", "azimuth_count: 64")
                     .replace("count: 13", "count: 3"))
    sim = d / "sim"
    write_overlap_file(d / "x.tovp", [np.zeros(2, dtype=RECORD_DTYPE)], SensorConfig())
    write_recon_file(d / "x.trcn", ReconSet(np.zeros(2, dtype=RECON_DTYPE)))
    write_probabilities(d / "x.prob", np.full((2, 3), 1 / 3))
    loss_check = ["loss-check", "--overlaps", str(d / "x.tovp"), "--probs", str(d / "x.prob")]
    common = ["--scans", str(sim / "scans"), "--boxes", str(sim / "boxes.jsonl"),
              "--poses", str(sim / "poses.txt")]
    argvs = {
        "simulate": ["simulate", "--scene", str(scene), "--out", str(sim)],
        "label": ["label", *common, "--out", str(d / "pred")],
        "eval": ["eval", *common, "--labels", str(sim / "labels"), "--predictions", str(d / "pred")],
        "stats": ["stats", *common],
        "extract --help": ["extract", "--help"],
        "loss-check": loss_check,
        "loss-check --recon": [*loss_check, "--recon", str(d / "x.trcn"), "--recon-probs", str(d / "x.prob")],
    }
    out = {}
    for name, argv in argvs.items():  # in order: each reads what the one before wrote
        code, modules = run_python(PROBE, *argv, cwd=d)
        assert code == 0, name
        out[name] = OPTIONAL.intersection(modules)
    return out


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_command_loads_only_what_it_runs(loaded, command):
    assert loaded[command] == EXPECTED[command]


def test_bare_import_loads_no_submodule(tmp_path):
    modules = run_python("import json, sys, tovp; print(json.dumps(sorted(sys.modules)))",
                         cwd=tmp_path)
    assert [m for m in modules if m.startswith("tovp.")] == []
    assert "yaml" not in modules


def test_public_names_are_their_defining_modules_objects():
    for name in tovp.__all__:
        value = getattr(tovp, name)
        assert value.__module__.startswith("tovp."), name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_dir_covers_all():
    assert set(tovp.__all__) <= set(dir(tovp))


def test_star_import():
    namespace = {}
    exec("from tovp import *", namespace)
    assert set(tovp.__all__) <= set(namespace)
    assert namespace["Scan"] is tovp.sensor_model.Scan


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tovp.no_such_name
    assert not hasattr(tovp, "formats_v2")
