"""rootforge: exact ADE root systems, enhanced Dynkin diagrams, mosets,
core groups, and the Weyl orbit classification of root subsystems."""

from .rootsystem import (
    RootSet,
    RootSystem,
    build_root_system,
    components,
    orthogonal_complement,
    parse_system,
    subsystem_generated,
    theta_component,
)
from .diagrams import (
    Diagram,
    Irreducible,
    ProjectiveDiagram,
    TypeLabel,
    are_isomorphic,
    automorphism_group,
    classify_components,
    delta_diagram,
    elementary_transformations,
    extended_pi_system,
    find_subdiagrams,
    gamma_diagram,
    is_pi_system,
    minimal_root,
    to_dot,
    type_label,
)
from .completion import (
    EnhancedBasis,
    complete,
    elementary_extension,
    enhanced_basis,
    extension_root,
    is_complete,
)
from .mosets import (
    Moset,
    all_mosets,
    all_mosets_conjugate_check,
    extend_to_moset,
    mu,
    perfect_moset,
)
from .coregroups import (
    CoreGroupModel,
    MosetLabeling,
    conjugate_in_moset,
    core_group_model,
    extend_partial_map,
    induced_group_on,
    parity,
)
from .classify import (
    EmbeddingMap,
    HasseDiagram,
    OrbitLabel,
    WeylDecision,
    are_conjugate,
    dn_tag,
    enumerate_pi_orbits,
    hasse_diagram,
    is_weyl_embedding,
    moset_embedding,
    orbit_label,
    order_between_orbits,
    parity_of_orthogonal,
    significant_part,
)
from .oracle import (
    WeylElement,
    canonical_image,
    enumerate_weyl,
    set_stabilizer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
