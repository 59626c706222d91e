"""The call-traffic check of tools/traffic.py."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"

# Every public function or method that no demo and no benchmark op enters,
# with the reason it stays. A new name here is a helper only tests reach.
UNREACHED = {
    "ion_sim.rf_unitary": "perfbench/tracing.py wraps it by name",
    "ion_sim.apply_laser_pi": "perfbench/tracing.py wraps it by name",
    "ion_sim.sequential_readout": "perfbench/tracing.py wraps it by name",
    "field_servo.ramsey_probability": "perfbench/tracing.py wraps it by name",
    "qsp.minimize": "perfbench/tracing.py wraps it by name",
    "qsp.bisecting_poly": "ROADMAP item 4 plans the bisection on it",
    "protocols.psk_to_ask_wrap": "acceptance criterion 5 states the paper's wrap with it",
    "cli.build_parser": "the CLI's public parser",
    "ion_sim.NoiseModel.lab": "the paper's measured noise budget as a preset",
    "protocols.PulseSequence.from_json": "reads --seq-file, which no demo or op passes",
    "protocols.PulseSequence.to_json": "writes the sequence files from_json reads",
}


def test_the_unreached_public_functions_are_the_known_ones():
    proc = subprocess.run([sys.executable, str(_TOOL)], capture_output=True, text=True,
                          timeout=300, check=True)
    assert set(proc.stdout.split()) == set(UNREACHED)
