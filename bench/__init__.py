"""The benchmark of the Cleo feedback loop (see ``bench/README.md``).

Four workloads over the four default clusters at ``full`` scale, timed from
outside through the layers' public functions.  ``python -m bench`` is the
entry point; nothing under ``src/`` knows this package exists.
"""
