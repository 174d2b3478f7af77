"""The one accumulation kernel behind every sparse linear combination.

Algebra elements, form coordinates, hom-form values, tensors and
elimination rows are all dicts from a key to a nonzero coefficient.
Keeping the kernel in its own module, apart from the layers, leaves its
time with whichever layer calls it.
"""

from __future__ import annotations

__all__ = ["add_scaled"]


def add_scaled(target, source, factor=None):
    """target += factor * source in place, dropping entries that cancel.

    The factor multiplies each value of source from the left; without a
    factor the values are added as they are, with no product.  Only target
    is written, so source may be a shared or memoised dict, but target must
    be a dict the caller owns.  Returns target.
    """
    for key, value in source.items():
        if factor is not None:
            value = factor * value
        have = target.get(key)
        if have is not None:
            value = have + value
        if value:
            target[key] = value
        elif have is not None:
            del target[key]
    return target
