"""Set-up a CLI user pays on every invocation, timed in a fresh interpreter.

Imports spinkey and its CLI, builds the three built-in sequences and runs
each once; prints the elapsed seconds. Run it with src/ on PYTHONPATH.
"""

import time

start = time.perf_counter()

import spinkey  # noqa: E402
import spinkey.cli  # noqa: E402,F401
from spinkey import ion_sim, protocols  # noqa: E402

for seq in (protocols.psk3_sequence(), protocols.ask3_sequence(),
            protocols.ask3_sequence(exact=True)):
    ion_sim.run(seq, 0)

print(repr(time.perf_counter() - start))
