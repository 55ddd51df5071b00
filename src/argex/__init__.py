"""Distributional models of verb argument expectations.

Builds sparse (target, relation, filler) co-occurrence tensors from
dependency-parsed corpora, weights them with positive local mutual
information, and evaluates structured (DEPS), bag-of-arguments (BOA),
and bag-of-words (BOW) expectation models on binary-selection tasks.

Import from the modules (``argex.space``, ``argex.evaluation``, ...):
the package root exports nothing, so a command imports only what it uses.
"""

__version__ = "0.1.0"
