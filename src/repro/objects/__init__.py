"""The Ode object manager.

O++ extends C++ with *persistent objects*: objects allocated with ``pnew``
in persistent store, identified by persistent pointers, and manipulated
through those pointers.  This package reproduces that model in Python:

* :class:`~repro.objects.persistent.Persistent` — base class whose
  subclasses declare typed fields with :func:`~repro.objects.schema.field`;
  plain instances are *volatile* objects, untouched by any database or
  trigger machinery.
* :class:`~repro.objects.oid.PersistentPtr` — the persistent pointer.
* :class:`~repro.objects.database.Database` — ``pnew`` / ``pdelete`` /
  ``deref``, transactions, class extents (a scan of the object records,
  each of which names its type), and a catalog persisted through a
  :class:`~repro.storage.interface.StorageManager` (disk or main-memory,
  exactly like Ode vs. MM-Ode).
* :class:`~repro.objects.handle.PersistentHandle` — the proxy returned by
  ``deref``; method calls through a handle run the compiler-generated
  wrapper functions that post trigger events (paper Section 5.3), while
  volatile instances call the original methods directly, preserving the
  design goal that volatile objects pay no trigger overhead.
"""

from repro.objects.database import Database
from repro.objects.handle import PersistentHandle
from repro.objects.metatype import Metatype, TypeRegistry, global_type_registry
from repro.objects.oid import NULL_PTR, PersistentPtr
from repro.objects.persistent import Persistent
from repro.objects.schema import Field, field

__all__ = [
    "NULL_PTR",
    "Database",
    "Field",
    "Metatype",
    "Persistent",
    "PersistentHandle",
    "PersistentPtr",
    "TypeRegistry",
    "field",
    "global_type_registry",
]
