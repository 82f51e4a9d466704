"""Annotated views run on the one maintenance engine.

:data:`AnnotatedEngine` is :class:`~repro.service.dbsp.engine.DBSPEngine`
under the name annotated callers know — the same class, not a subclass,
so patching a method here patches it for every view.  Given a semiring
other than ``bool``, the engine keeps the annotation maps and its
semiring's law picks the full recompute for its re-derive.
"""

from __future__ import annotations

from .dbsp.engine import DBSPEngine

__all__ = ["AnnotatedEngine"]

AnnotatedEngine = DBSPEngine
