"""Exception types shared across the package, and the exit code of each."""

EXIT_OK, EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO = 0, 2, 3, 4


class OfdmSarError(Exception):
    """Base class for all package-specific errors.  One that input can cause has
    an exit code and ``kind``, the first word of its one-line message; one with
    none (``DimensionError``, ``NoPeakError``) is a fault, and ends in a traceback."""

    exit_code: int | None = None
    kind: str


class DimensionError(OfdmSarError, ValueError):
    """Vector/matrix sizes are inconsistent with the waveform numerology."""


class ConfigError(OfdmSarError, ValueError):
    """Malformed or unknown configuration key/value."""

    exit_code, kind = EXIT_CONFIG, "config"


class SceneFormatError(OfdmSarError, ValueError):
    """Scene file does not parse or has the wrong dimensions."""

    exit_code, kind = EXIT_IO, "io"


class IllConditionedWaveformError(OfdmSarError):
    """Subcarrier power is below the conditioning threshold for LS inversion."""

    exit_code, kind = EXIT_INFEASIBLE, "infeasible"

    def __init__(self, subcarrier: int, power: float, threshold: float, design: str = ""):
        self.subcarrier = subcarrier
        self.power = power
        self.threshold = threshold
        super().__init__(
            f"subcarrier {subcarrier}: |S_k|^2 = {power:.3e} below "
            f"conditioning threshold {threshold:.3e}"
            + (f" in design {design!r}" if design else "")
        )


class InfeasibleChannelError(OfdmSarError):
    """All channel gains are zero; no rate can be achieved."""

    exit_code, kind = EXIT_INFEASIBLE, "infeasible"


class InfeasibleRateError(OfdmSarError):
    """Requested rate exceeds the water-filling capacity of the channel."""

    exit_code, kind = EXIT_INFEASIBLE, "infeasible"

    def __init__(self, requested: float, capacity: float):
        self.requested = requested
        self.capacity = capacity
        super().__init__(
            f"rate target {requested:.6g} exceeds channel capacity {capacity:.6g}"
        )


class NoPeakError(OfdmSarError):
    """Profile has no unique peak; sidelobe metrics are undefined."""
