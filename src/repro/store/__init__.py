"""An embedded relational store (the reproduction's Apache Derby).

iMeMex implements its Resource View Catalog "on top of Apache Derby
10.1". This package provides the equivalent substrate: typed tables with
primary keys, predicate scans and size accounting (the catalog's
contribution to Table 3).

It is a single-process, in-memory store — exactly what the catalog of a
personal dataspace needs; durability is out of the paper's scope.
"""

from .database import Database
from .schema import Column, TableSchema
from .table import Table
from .types import BOOL, DATE, INT, REAL, TEXT, ColumnType

__all__ = [
    "Database", "Column", "TableSchema", "Table",
    "BOOL", "DATE", "INT", "REAL", "TEXT", "ColumnType",
]
