"""Make the benchmark's modules and the program importable for its self-tests."""

import os
import sys

E2E = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
sys.path.insert(0, os.path.join(E2E, "..", "..", "src"))
sys.path.insert(0, E2E)
