"""Value-by-value CSV rendering: an oracle for ``cli.write_csv``, which
formats each row from one cached %-template per row type signature.

Each value is rendered on its own: booleans as true/false (tested before
integers, of which they are a subclass), integers in decimal, floats with
17 significant digits, anything else by ``str``.
"""

import numpy as np


def value_text(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    return str(v)


def csv_text(header, rows) -> str:
    """The whole file: the header line, then one line per row."""
    lines = [",".join(header)]
    lines.extend(",".join(value_text(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
