"""Storage device front-ends: the legacy block device (black-box SSD with
on-device FTL, NCQ-limited) and the hazard-safe host-side front end
(admission control + write-back cache with an explicit durability
contract).  NoFTL needs no device veneer: its storage manager drives the
native command set through :mod:`repro.flash`'s executors directly."""

from .blockdev import BlockDevice, SyncBlockDevice
from .frontend import DeviceFrontend, FrontendConfig, FrontendShedError

__all__ = [
    "BlockDevice",
    "SyncBlockDevice",
    "DeviceFrontend",
    "FrontendConfig",
    "FrontendShedError",
]
