"""Shared fixtures.

Databases register process-globally by name (persistent pointers embed the
name), so every test gets a uniquely-named database and the registry is
swept after each test even when the test fails mid-transaction.
"""

from __future__ import annotations

import itertools

import pytest

from repro.objects.database import Database
from repro.sessions import session as session_module

_COUNTER = itertools.count()


@pytest.fixture(autouse=True)
def _clean_open_databases():
    yield
    for db in list(Database._open_databases.values()):
        try:
            db.close()
        except Exception:
            db._closed = True
    Database._open_databases.clear()


@pytest.fixture(autouse=True)
def _no_ambient_session_left():
    """Fail a test that leaves a session on this thread's ambient stack:
    every transaction block pushes its session, so a block entered by hand
    and never exited would leave it ambient for every later test.  (A test
    that abandons a transaction mid-flight, a simulated crash, begins it
    with ``txn_manager.begin()``.)"""
    yield
    stack = getattr(session_module._ambient, "stack", None)
    if stack:
        left = list(stack)
        stack.clear()
        pytest.fail(f"the test left {left!r} on the ambient-session stack")


@pytest.fixture
def db_path(tmp_path):
    """A unique on-disk path for a database."""
    return str(tmp_path / f"testdb-{next(_COUNTER)}")


@pytest.fixture(params=["disk", "mm"])
def any_engine_db(request, db_path):
    """A fresh database on each storage engine."""
    db = Database.open(db_path, engine=request.param)
    yield db
    if not db.closed:
        db.close()


@pytest.fixture
def disk_db(db_path):
    db = Database.open(db_path, engine="disk")
    yield db
    if not db.closed:
        db.close()


@pytest.fixture
def mm_db(db_path):
    db = Database.open(db_path, engine="mm")
    yield db
    if not db.closed:
        db.close()
