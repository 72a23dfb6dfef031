"""Per-game record of every computed quantity, with run metadata."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class BiasReport:
    """Collects lower bounds, relaxation values, and norms for one game.

    Unpopulated quantities stay None; chain checks apply to every populated
    pair. Runtimes are wall-clock seconds per quantity.
    """

    game: str
    n: int
    trace_norm: float | None = None
    omega_lower: float | None = None
    omega_c_lower: float | None = None
    me_lower: float | None = None
    me_d: int | None = None
    entangled_lower: float | None = None
    entangled_dims: tuple[int, int] | None = None
    beta_sdp: float | None = None
    beta_nc: float | None = None
    beta_os: float | None = None
    chains: list = field(default_factory=list)
    seed: int = 0
    restarts: int = 0
    tol: float = 1e-6
    runtimes: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["cfg"] = {key: data.pop(key) for key in ("seed", "restarts", "tol")}
        return data
