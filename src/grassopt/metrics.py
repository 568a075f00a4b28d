"""Per-epoch metrics records and the append-only CSV writer."""

from dataclasses import dataclass, fields

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


METRIC_FIELDS = tuple(f.name for f in fields(MetricsRecord))  # the CSV header, in order


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class MetricsWriter:
    """Append-only metrics CSV, flushed after every record.

    A crash mid-run leaves a valid prefix of the file on disk.
    """

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._fh.write(",".join(METRIC_FIELDS) + "\n")
        self._fh.flush()

    def write(self, record: MetricsRecord) -> None:
        self._fh.write(record.csv_row() + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
