"""Exception hierarchy for the relational substrate."""

from __future__ import annotations


class RelationalError(Exception):
    """Base class for every error raised by :mod:`repro.relational`."""


class SchemaError(RelationalError):
    """Schema definition or catalog problem (duplicate table, bad column)."""


class IntegrityError(RelationalError):
    """Constraint violation (type mismatch, duplicate primary key)."""
