"""On-device FTL baselines (and the shared page-mapped space that NoFTL
reuses in the host).

* :class:`PageMapFTL` — pure page-level mapping, fully cached (ideal);
* :class:`DFTL` — demand-cached page mapping (Gupta et al., ASPLOS'09);
* :class:`FASTer` — hybrid log-block mapping with second chance
  (Lim et al., SNAPI'10).
"""

from .base import UNMAPPED, BaseFTL, BlockPool, FTLStats, MappingState, relocate_page
from .dftl import DFTL
from .faster import FASTer
from .pagemap import PageMapFTL
from .pagespace import PageMappedSpace

__all__ = [
    "UNMAPPED",
    "BaseFTL",
    "BlockPool",
    "FTLStats",
    "MappingState",
    "relocate_page",
    "DFTL",
    "FASTer",
    "PageMapFTL",
    "PageMappedSpace",
]
