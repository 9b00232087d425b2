"""``scripts/check_identity.py`` names its runs by CLI flags; a renamed flag,
field or run must fail here rather than partway through an identity run.

The script is loaded without running it; ``scripts/`` goes on ``sys.path``
for its ``blas_core`` import.
"""

import importlib.util
import pathlib
import sys

import pytest

from peerkd.cli import build_parser

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load_check_identity():
    sys.path.insert(0, str(SCRIPTS))
    try:
        spec = importlib.util.spec_from_file_location("check_identity",
                                                      SCRIPTS / "check_identity.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


ident = _load_check_identity()


@pytest.mark.parametrize("name", list(ident.RUNS))
def test_run_flags_build_a_valid_config(name, tmp_path):
    flags = [*ident.COMMON, *(flag.format(out=tmp_path) for flag in ident.RUNS[name])]
    assert len(flags) % 2 == 0 and all(flag.startswith("--") for flag in flags[::2])
    build_parser().parse_args(["train", *flags, "--out-dir", str(tmp_path / name)])
    config = ident.run_config(flags)  # validated, as write_eval_logits builds it
    if name in ident.GRADCAM_RUNS:
        assert config.num_nets >= 2  # gradcam reads net 1


def test_resumed_and_gradcam_runs_name_runs():
    assert set(ident.RESUMED_RUNS.values()) <= set(ident.RUNS)
    assert set(ident.GRADCAM_RUNS) <= set(ident.RUNS)
