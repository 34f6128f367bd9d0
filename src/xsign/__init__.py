"""Cross-sign analysis toolkit for X.509 certificate corpora."""

__version__ = "0.1.0"
