import re
from pathlib import Path

import normcontrol

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in normcontrol.__all__ if not hasattr(normcontrol, name)]
    assert missing == []


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 2
    # the stand-in objective: 0.5 * ||theta - 1||^2
    namespace = {"compute_gradient": lambda theta: theta - 1.0}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].t == 1000
    assert namespace["tied"].kt_at(1) == namespace["decay_cfg"].decay_rate(
        namespace["sched"].eta_at(1))
