"""The iMeMex Data Model (iDM) core: resource views, components, classes,
graph utilities, laziness and intensional data."""

from .components import (
    ANY,
    BOOLEAN,
    BYTES,
    DATE,
    FLOAT,
    INTEGER,
    STRING,
    Attribute,
    ContentComponent,
    Domain,
    GroupComponent,
    Schema,
    TupleComponent,
    ViewSequence,
    domain_by_name,
)
from .classes import (
    BUILTIN_REGISTRY,
    ClassRegistry,
    Emptiness,
    Finiteness,
    ResourceViewClass,
    W_FS,
    W_FS_FULL,
    build_builtin_registry,
)
from .errors import (
    ClassConformanceError,
    ComponentError,
    GraphError,
    IdmError,
    InfiniteComponentError,
    ParseError,
    QueryError,
    SchemaError,
)
from .graph import (
    children,
    collect_index,
    count_views,
    descendants,
    find,
    find_by_name,
    has_cycle,
    is_indirectly_related,
    paths_between,
    to_dot,
    traverse,
)
from .identity import DEFAULT_ID_GENERATOR, IdGenerator, ViewId
from .intensional import (
    IntensionalContent,
    IntensionalGroup,
    ServiceError,
    ServiceRegistry,
    intensional_view,
)
from .lazy import CountingProvider, LazyValue
from .resource_view import ResourceView, view

__all__ = [
    "ANY", "BOOLEAN", "BYTES", "DATE", "FLOAT", "INTEGER", "STRING",
    "Attribute", "ContentComponent", "Domain", "GroupComponent", "Schema",
    "TupleComponent", "ViewSequence", "domain_by_name",
    "BUILTIN_REGISTRY", "ClassRegistry", "Emptiness", "Finiteness",
    "ResourceViewClass", "W_FS", "W_FS_FULL", "build_builtin_registry",
    "ClassConformanceError", "ComponentError", "GraphError", "IdmError",
    "InfiniteComponentError", "ParseError", "QueryError", "SchemaError",
    "children", "collect_index", "count_views", "descendants", "find",
    "find_by_name", "has_cycle", "is_indirectly_related", "paths_between",
    "to_dot", "traverse",
    "DEFAULT_ID_GENERATOR", "IdGenerator", "ViewId",
    "IntensionalContent", "IntensionalGroup", "ServiceError",
    "ServiceRegistry", "intensional_view",
    "CountingProvider", "LazyValue",
    "ResourceView", "view",
]
