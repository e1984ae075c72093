"""Repository benchmark: cold flows, min-W routing, circuit sweeps and
the job service, measured end to end and layer by layer from outside
the program.  Run ``python3 perfbench/run.py --help``."""
