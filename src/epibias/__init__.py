"""Toolkit for quantifying and correcting estimation biases in the
exponential-growth phase of an epidemic: backward-observed generation
times, serial-interval substitution, multiple potential infectors, and
delayed death/recovery observations."""

__version__ = "0.2.0"
