"""Fleet rightsizing: trace-driven production simulation + continuous control.

The offline packages measure functions one at a time under controlled load;
this package runs the *online* side of the paper at production scale — a
fleet of deployed functions serving time-varying traffic, monitored in
windows, continuously rightsized through the batch prediction API, with
realized savings accounted against the default deployment:

- :mod:`repro.fleet.simulator`  -- :class:`FleetSimulator` / windowed
  columnar monitoring (:class:`FleetWindow`, one row per active function).
- :mod:`repro.fleet.controller` -- :class:`RightsizingController` with
  warm-up, hysteresis, cooldown and rollback guardrails.
- :mod:`repro.fleet.ledger`     -- :class:`SavingsLedger`, the longitudinal
  Table-8 extension.
- :mod:`repro.fleet.service`    -- :class:`FleetRightsizingService`, the
  observe → decide → account loop.

Traffic models live in :mod:`repro.workloads.traffic`.
"""

from repro.fleet.controller import (
    ControllerConfig,
    ResizeEvent,
    RightsizingController,
    merge_stat_blocks,
)
from repro.fleet.ledger import SavingsLedger, WindowAccount
from repro.fleet.service import FleetRightsizingService, FleetRunReport
from repro.fleet.simulator import FleetConfig, FleetSimulator, FleetWindow

__all__ = [
    "FleetConfig",
    "FleetSimulator",
    "FleetWindow",
    "ControllerConfig",
    "RightsizingController",
    "ResizeEvent",
    "merge_stat_blocks",
    "SavingsLedger",
    "WindowAccount",
    "FleetRightsizingService",
    "FleetRunReport",
]
