import os

# Pin BLAS to one thread before numpy loads: faster for this workload's
# matrix shapes and keeps reductions bit-stable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ.get("CTRLPINN_THREADS", "1"))

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def analytical_run_300():
    """The pinned 300-epoch training run shared by several checks."""
    from pathlib import Path

    from ctrlpinn.config import parse_config
    from ctrlpinn.trainer import train

    config = parse_config(Path(__file__).resolve().parent.parent / "configs" / "analytical.cfg")
    return train(config.make_problem(), config)
