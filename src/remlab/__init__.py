"""Deterministic proving ground for microservice auto-remediation.

A seedable simulated cluster with injectable failures, a verified playbook
subset that executes against it, a bounded probe/execute/verify/reflect
remediation loop, a composite reward grader with a safety penalizer, and
desk-scale implementations of the staged training objectives (supervised
imitation, group-relative policy gradient, preference optimization) on a
tabular softmax policy.
"""

__version__ = "0.1.0"
