"""The shared base of the check reports and the text form of their
values."""

from dataclasses import fields

import numpy as np


def require_samples(samples):
    """Refuse a sampled check asked for fewer than one sample, whose
    report would otherwise pass on nothing."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


class Report:
    """Base of the report dataclasses.  ``as_dict`` maps each field name
    to its value in field order, which is the key order of the per-check
    documents and of the manifest."""

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def format_value(value):
    """Text of a report value: arrays become comma-separated decimals and
    floats keep 17 significant digits."""
    if isinstance(value, (np.ndarray, list, tuple)):
        return ",".join(f"{float(v):.17g}" for v in np.asarray(value).ravel())
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)
