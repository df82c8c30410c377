"""Test-local helper for the (table, index) lookups that `encode` returns."""

from lfked import autodiff as ad


def gathered(lookups):
    """The rows the lookups stand for, side by side: (n, sum of the table
    widths), recorded on the tape when one is active."""
    return ad.concat([ad.take_rows(table, index) for table, index in lookups], axis=1)
