"""Record the exit code and payload hash of every config in ``cli_configs/``.

    PYTHONPATH=src python3 perfbench/record_cli_reference.py

Run from the root of a checkout whose outputs are known to be right; the
``cli-cold`` workload then requires byte-identical payloads.  The command
is the config file name's prefix (``verify_planted_violation.json`` runs
``verify``).
"""

import hashlib
import json
import os
import subprocess
import sys

from workloads import CLI_CONFIG_DIR, CLI_REFERENCE, cli_payload


def main() -> int:
    reference = {}
    for name in sorted(os.listdir(CLI_CONFIG_DIR)):
        command = name.split("_", 1)[0]
        proc = subprocess.run(
            [sys.executable, "-m", "cheaptalk.cli", command, "--config",
             os.path.join(CLI_CONFIG_DIR, name)],
            capture_output=True, text=True, check=False,
        )
        _, payload = cli_payload(proc.stdout)
        reference[name] = {
            "command": command,
            "exit": proc.returncode,
            "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
        }
    with open(CLI_REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
