"""Tests for the relational substrate: schemas, tables, hash indexes."""

import pytest

from repro.relational import (
    Column,
    ColumnType,
    Database,
    IntegrityError,
    SchemaError,
    TableSchema,
)


@pytest.fixture
def courses_db():
    db = Database("uni")
    db.create_table(
        "course",
        [
            ("id", ColumnType.INT),
            ("title", ColumnType.TEXT),
            ("dept", ColumnType.TEXT),
            ("size", ColumnType.INT),
        ],
        primary_key=("id",),
    )
    db.insert_many(
        "course",
        [
            (1, "Ancient History", "HIST", 120),
            (2, "Databases", "CSE", 80),
            (3, "Operating Systems", "CSE", 65),
            (4, "Modern History", "HIST", 45),
        ],
    )
    return db


class TestSchema:
    def test_duplicate_column_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a"), Column("a")])

    def test_pk_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", [Column("a")], primary_key=("b",))

    def test_type_check(self):
        assert ColumnType.INT.check(3)
        assert not ColumnType.INT.check(True)
        assert not ColumnType.INT.check("3")
        assert ColumnType.FLOAT.check(3)
        assert ColumnType.ANY.check(object())

    def test_float_coercion(self):
        assert ColumnType.FLOAT.coerce(2) == 2.0
        assert isinstance(ColumnType.FLOAT.coerce(2), float)


class TestTableMutation:
    def test_insert_and_count(self, courses_db):
        assert len(courses_db.table("course")) == 4

    def test_duplicate_pk_rejected(self, courses_db):
        with pytest.raises(IntegrityError):
            courses_db.insert("course", (1, "X", "Y", 0))

    def test_type_violation_rejected(self, courses_db):
        with pytest.raises(IntegrityError):
            courses_db.insert("course", (9, 42, "Y", 0))

    def test_mapping_insert_defaults_none(self, courses_db):
        courses_db.insert("course", {"id": 10, "title": "Seminar"})
        row = courses_db.table("course").lookup_pk((10,))
        assert row["dept"] is None

    def test_mapping_insert_unknown_column(self, courses_db):
        with pytest.raises(SchemaError):
            courses_db.insert("course", {"id": 11, "bogus": 1})

    def test_delete_where(self, courses_db):
        deleted = courses_db.table("course").delete_where(
            lambda row: row["dept"] == "CSE"
        )
        assert deleted == 2
        assert len(courses_db.table("course")) == 2

    def test_update_where(self, courses_db):
        updated = courses_db.table("course").update_where(
            lambda row: row["id"] == 2, {"size": 99}
        )
        assert updated == 1
        assert courses_db.table("course").lookup_pk((2,))["size"] == 99

    def test_update_cannot_duplicate_pk(self, courses_db):
        with pytest.raises(IntegrityError):
            courses_db.table("course").update_where(
                lambda row: row["id"] == 2, {"id": 1}
            )

    def test_not_nullable(self):
        db = Database()
        db.create_table("t", [Column("a", ColumnType.INT, nullable=False)])
        with pytest.raises(IntegrityError):
            db.insert("t", (None,))


def dept_ids(table, dept):
    """Course ids under ``dept``, read through the dept hash index."""
    index = table.hash_index_for({"dept"})
    return {table.get_row(row_id)["id"] for row_id in index.lookup((dept,))}


class TestIndexes:
    def test_index_scan_matches_full_scan(self, courses_db):
        table = courses_db.table("course")
        table.create_hash_index(("dept",))
        for dept in ("HIST", "CSE", "none"):
            assert dept_ids(table, dept) == {
                row["id"] for row in table.scan() if row["dept"] == dept
            }

    def test_index_maintained_on_delete(self, courses_db):
        table = courses_db.table("course")
        table.create_hash_index(("dept",))
        table.delete_where(lambda row: row["id"] == 1)
        assert dept_ids(table, "HIST") == {4}

    def test_index_maintained_on_update(self, courses_db):
        table = courses_db.table("course")
        table.create_hash_index(("dept",))
        table.update_where(lambda row: row["id"] == 2, {"dept": "HIST"})
        assert dept_ids(table, "HIST") == {1, 2, 4}
        assert dept_ids(table, "CSE") == {3}
