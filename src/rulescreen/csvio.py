"""The one reader of the CSV files the program reads, in bounded memory.

It hashes an input file, streams its records a block at a time and converts
them a column at a time, naming the file and line of the first record that
does not parse. It needs the standard library alone, so `rulescreen.cli`
and `report`, which load it, start without numpy; `panel` adds the numpy
converters and the parse cache on top of it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
from typing import Callable, Dict, Iterator, List, Tuple

from .errors import InputChanged, MalformedRow, SpecMismatch

# The sha256 of each CSV file an InputCsv has read, by the path it was read
# from, so that manifest.json takes a CSV input's digest from here instead of
# reading and hashing the file again. cli.run clears it before each run.
read_digests: Dict[str, str] = {}

# Records per block: InputCsv converts, and panel.write_csv_columns formats,
# this many records at a time, so one block of cell strings is alive at once.
BLOCK_ROWS = 4096

# Bytes per read when sha256_of hashes an input file.
READ_CHUNK = 1 << 20


def sha256_of(fh) -> str:
    """The one hash of an input file: the sha256 hex digest of the binary
    stream fh, read READ_CHUNK bytes at a time. It keys the parse cache and
    fills manifest.json's inputs; a cache miss checks the bytes it parses
    against it (InputCsv.records)."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(READ_CHUNK), b""):
        digest.update(chunk)
    return digest.hexdigest()


class _Tap(io.RawIOBase):
    """The binary file fh, read through: notes whether any byte read is NUL
    and, given a hashlib `digest`, feeds it every byte read."""

    def __init__(self, fh, digest=None):
        self.fh, self.digest, self.nul = fh, digest, False

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.fh.readinto(buffer)
        chunk = bytes(memoryview(buffer)[:n])
        self.nul = self.nul or b"\0" in chunk
        if self.digest is not None:
            self.digest.update(chunk)
        return n


class InputCsv:
    """One CSV input file, read in bounded memory.

    The constructor streams the file through sha256_of, READ_CHUNK bytes at
    a time, noting whether any byte is NUL (a unicode array drops trailing
    NULs, so such a file is not cached), and then reads the header record
    alone; it never holds the file's bytes. A header that header_ok rejects
    raises SpecMismatch(header_error), and so does one that repeats a name.

    `records` reads the file again, BLOCK_ROWS records at a time, and hashes
    the bytes as they stream: the digest that keys the cache and fills
    manifest.json is that of the bytes parsed, or InputChanged is raised.
    panel.parsed gives the arrays a loader makes of the file, from the cache
    beside it when the key matches, else by converting each block as it is
    read, so a cache miss holds one block of cells at a time.
    """

    def __init__(self, path, header_ok: Callable[[List[str]], bool], header_error: str):
        self.path = path
        with open(path, "rb") as fh:
            tap = _Tap(fh)
            self.sha256 = read_digests[str(path)] = sha256_of(tap)
        self.cacheable = not tap.nul
        with open(path, newline="") as fh:
            self.header = next(csv.reader(fh), None)
        if self.header is None or not header_ok(self.header):
            raise SpecMismatch(header_error)
        self.index = {name: i for i, name in enumerate(self.header)}
        if len(self.index) < len(self.header):
            name = next(n for i, n in enumerate(self.header) if self.index[n] != i)
            raise SpecMismatch(f"{path}: header repeats column {name!r}")

    def records(self) -> Iterator[Tuple[List[List[str]], List[int]]]:
        """The file's records a block at a time: for each block of at most
        BLOCK_ROWS records, one list of cells per header column and the line
        number of each record. At least one block comes, and a block shorter
        than BLOCK_ROWS is the last.

        Every record must have exactly the header's cell count: a short, long
        or blank record raises MalformedRow naming the file and line, once
        the records before it in its block have been yielded, so a consumer
        that converts each block in turn meets the earliest fault first.
        Read to its end, a file whose bytes do not hash to self.sha256
        raises InputChanged."""
        width = len(self.header)
        with open(self.path, "rb", buffering=0) as fh:
            tap = _Tap(fh, hashlib.sha256())
            reader = csv.reader(io.TextIOWrapper(io.BufferedReader(tap), newline=""))
            next(reader, None)  # the header
            while True:
                columns, lines = [[] for _ in self.header], []
                appends = [column.append for column in columns]
                for row in itertools.islice(reader, BLOCK_ROWS):
                    if len(row) != width:
                        error = MalformedRow(
                            f"{self.path}, line {reader.line_num}: "
                            f"{len(row)} cells, header has {width}"
                        )
                        yield columns, lines
                        raise error
                    for append, cell in zip(appends, row):
                        append(cell)
                    lines.append(reader.line_num)
                yield columns, lines
                if len(lines) < BLOCK_ROWS:
                    break
        if tap.digest.hexdigest() != self.sha256:
            raise InputChanged(
                f"{self.path}: changed while it was read (sha256 {self.sha256} "
                f"when looked up, {tap.digest.hexdigest()} when parsed)"
            )


def _first_bad_cell(cells, convert) -> int:
    """Index of the first cell of a column that `convert` rejects. A run of
    cells converts only if each of its cells does, so halving the run that
    holds the first bad cell finds it in about one column's worth of work."""
    lo, hi = 0, len(cells)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            convert(cells[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    return lo


def parse_columns(path, lines, *columns) -> list:
    """Convert each (cells, converter) pair a whole column at a time. A
    cell that does not parse raises MalformedRow naming the first record,
    in file order, that holds one; only the columns that failed are searched."""
    parsed, failed = [], []
    for cells, convert in columns:
        try:
            parsed.append(convert(cells))
        except ValueError:
            failed.append((_first_bad_cell(cells, convert), cells, convert))
    if failed:
        i, cells, convert = min(failed, key=lambda bad: bad[0])
        try:
            convert(cells[i:i + 1])
        except ValueError as exc:
            raise MalformedRow(f"{path}, line {lines[i]}: {exc}") from None
    return parsed
