"""The sweep CSV, as `sweep` writes it and `region --from-sweep` reads it
back: a module of its own (bounds re-exports it), so region loads no numpy."""

import csv
import io
import math

from .errors import ConfigError

SWEEP_CSV_HEADER = ("p_dbm", "u1", "u2", "u_sum", "awgn", "ian1", "ian2")


def sweep_csv(powers_dbm, bound_sets) -> str:
    """Render the sweep as CSV with 6 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for p_dbm, bs in zip(powers_dbm, bound_sets):
        writer.writerow([f"{v:.6g}" for v in (p_dbm, bs.u1, bs.u2, bs.u_sum,
                                              bs.awgn1, bs.ian1, bs.ian2)])
    return buf.getvalue()


def read_sweep_csv(path: str) -> list[dict]:
    """Parse a sweep CSV back into row dicts of floats."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader, rows = csv.reader(fh), []
        try:
            header = tuple(next(reader, ()))
            if header != SWEEP_CSV_HEADER:
                raise ConfigError(f"unexpected sweep CSV header: {header}")
            for row in reader:
                if len(row) != len(header):
                    raise ConfigError(f"{len(row)} fields, expected "
                                      f"{len(header)}")
                values = dict(zip(header, map(float, row)))
                for name, value in values.items():
                    if not math.isfinite(value):
                        raise ConfigError(f"{name} must be finite, "
                                          f"got {value}")
                rows.append(values)
        except UnicodeDecodeError as exc:  # decoded by the block: no line
            raise ConfigError(f"{path}: {exc}") from exc
        except (ConfigError, ValueError, csv.Error) as exc:
            raise ConfigError(f"{path} line {reader.line_num}: {exc}") from exc
    return rows
