#!/usr/bin/env python3
"""Regenerate the check-deep fixtures and their MANIFEST.json.

    python3 perfbench/make_fixtures.py

Run from the repository root.  Builds the mfd CLI, writes each fixture
with `mfd run NAME -k 5 -o perfbench/fixtures/NAME.blif` (seed 0: the
catalogue's own stand-ins), and records for each one the command, the
commit, the MD5 digest of the BLIF file and the expected findings of
`mfd lint --deep --sem-steps STEPS` in normal form (count and the MD5
of the sorted code/severity/location/message lines), with the number of
nodes its exact engine covers.  The benchmark refuses to run on a
fixture whose digest differs.
"""

import hashlib
import json
import os
import subprocess
import sys

STEPS = 400
# (name, whether check-deep also optimizes and audits it): the exact
# engine finishes the optimized ones at STEPS polls.  C880, rot, vg2,
# count and f51m are left out to fit the run length (README.md).
FIXTURES = [
    ("apex7", False),
    ("duke2", False),
    ("b9", True),
    ("alu2", True),
    ("C499", True),
    ("e64", True),
]
DIR = os.path.join("perfbench", "fixtures")


def normal_form(findings):
    lines = sorted(
        "\t".join([f["code"], f["severity"], f["loc"] or "", f["message"]])
        for f in findings
    )
    return hashlib.md5("\n".join(lines).encode("utf-8")).hexdigest()


def main():
    subprocess.run(["dune", "build", "--root", ".", "./bin/mfd.exe"], check=True)
    mfd = os.path.join("_build", "default", "bin", "mfd.exe")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    entries = []
    for name, optimize in FIXTURES:
        blif = os.path.join(DIR, name + ".blif")
        subprocess.run([mfd, "run", name, "-k", "5", "-o", blif], check=True,
                       stdout=subprocess.DEVNULL)
        with open(blif, "rb") as f:
            md5 = hashlib.md5(f.read()).hexdigest()
        lint = subprocess.run(
            [mfd, "lint", "--deep", "--sem-steps", str(STEPS), "--json", blif],
            capture_output=True, text=True,
        )
        report = json.loads(lint.stdout)
        findings = report["findings"]
        entries.append({
            "name": name,
            "blif": name + ".blif",
            "md5": md5,
            "command": "mfd run %s -k 5 -o %s.blif" % (name, name),
            "commit": commit,
            "optimize": optimize,
            "findings": len(findings),
            "findings_md5": normal_form(findings),
            "exact_nodes": report["coverage"]["exact_nodes"],
        })
        print("%-6s %6d B  %5d findings" % (name, os.path.getsize(blif), len(findings)),
              file=sys.stderr)
    manifest = {"step_budget": STEPS, "fixtures": entries}
    with open(os.path.join(DIR, "MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
