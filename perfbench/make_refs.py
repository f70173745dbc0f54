"""Write the reference CSVs that the sweep workloads are checked against.

Run from the repository root: ``python3 perfbench/make_refs.py``.  It runs each
sweep workload once per grid shift and copies the CSV the CLI wrote to
``perfbench/ref/<workload>/shift<k>.csv``.  Run it only when the expected
results change on purpose; the references pin the results of the commit that
wrote them.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import REF_DIR, SHIFTS, WORKLOADS, _config_json, build_command, child_env


def main():
    root = Path.cwd()
    env = child_env(root)
    for name, spec in WORKLOADS.items():
        if "nh" in spec:
            continue
        stem = _config_json(root, spec["config"])["output"]["stem"]
        (REF_DIR / name).mkdir(parents=True, exist_ok=True)
        for shift in range(SHIFTS):
            with tempfile.TemporaryDirectory(dir=root) as tmp:
                argv, _ = build_command(name, root, Path(tmp), shift)
                argv += ["--jobs", str(spec["jobs"]), "--out", tmp]
                subprocess.run([sys.executable, "-m", "heatlaser.cli", *argv], env=env, check=True)
                shutil.copy(Path(tmp) / f"{stem}.csv", REF_DIR / name / f"shift{shift}.csv")
            print(f"wrote {REF_DIR / name / f'shift{shift}.csv'}")


if __name__ == "__main__":
    main()
