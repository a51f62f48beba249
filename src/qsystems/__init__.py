"""Q-systems, alpha-induction and tensor-product subfactor constructions
over small unitary fusion categories."""

from .fusion import FusionData, StructureError, compute_qdims, validate_fusion
from .morphisms import (
    CategoryModel,
    Morphism,
    SumObject,
    validate_category,
    mirror,
    deligne_product,
)

__version__ = "0.1.0"
