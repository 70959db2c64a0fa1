"""Standalone benchmark of the SOCRATES reproduction (``python3 perfbench/run.py``).

The benchmark drives the public API of ``repro`` from one process and one
thread with the serial evaluation backend.  ``workloads`` defines what is
run, ``oracles`` checks that what ran is correct, ``calibration`` converts
measured times to reference-host time, and ``layers`` attributes time and
work to the program's layers from outside the program.  See
``perfbench/README.md`` for the choices behind each workload and metric.
"""
