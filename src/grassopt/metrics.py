"""Per-epoch metrics records and the append-only CSV / JSONL writers."""

import json
from dataclasses import asdict, dataclass, fields

__all__ = ["METRIC_FIELDS", "MetricsRecord", "MetricsWriter"]


@dataclass(frozen=True)
class MetricsRecord:
    """One evaluation point of a training run."""

    epoch: int
    step: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float
    ortho_loss_total: float
    mean_step_angle_radians: float
    lr_e: float
    lr_g: float
    wall_time: float

    def csv_row(self) -> str:
        return ",".join(_fmt(getattr(self, name)) for name in METRIC_FIELDS)

    def json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


METRIC_FIELDS = tuple(f.name for f in fields(MetricsRecord))  # the CSV header, in order


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class MetricsWriter:
    """Append-only metrics stream, flushed after every record.

    A crash mid-run leaves a valid prefix of the stream on disk.
    """

    def __init__(self, path, fmt: str = "csv"):
        if fmt not in ("csv", "jsonl"):
            raise ValueError(f"unknown metrics format {fmt!r}")
        self.fmt = fmt
        self._fh = open(path, "w", newline="")
        if fmt == "csv":
            self._fh.write(",".join(METRIC_FIELDS) + "\n")
            self._fh.flush()

    def write(self, record: MetricsRecord) -> None:
        line = record.csv_row() if self.fmt == "csv" else record.json_line()
        self._fh.write(line + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
