"""Make the package sources and the benchmark modules importable."""
import os
import sys
from pathlib import Path

# As in run.py: one BLAS thread; more only oversubscribe the cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]
