"""Unit tests for the SPC trace parser."""

import pytest

from repro.traces import OpType, SPCFormatError, parse_spc, parse_spc_line


class TestParseLine:
    def test_basic_read(self):
        r = parse_spc_line("0,1024,4096,R,0.5")
        assert r.op is OpType.READ
        assert r.npages == 2  # 4096 B on 2 KiB pages
        assert r.arrival_us == pytest.approx(0.5e6)

    def test_write_lowercase(self):
        r = parse_spc_line("0,0,512,w,0.0")
        assert r.op is OpType.WRITE
        assert r.npages == 1

    def test_lba_to_page_conversion(self):
        # LBA 4 (sector) on 2 KiB pages (4 sectors/page) -> page 1
        r = parse_spc_line("0,4,512,R,1.0")
        assert r.lpn == 1

    def test_unaligned_request_spans_pages(self):
        # sectors 3..4 straddle pages 0 and 1
        r = parse_spc_line("0,3,1024,R,1.0")
        assert r.lpn == 0
        assert r.npages == 2

    def test_asu_separation(self):
        r0 = parse_spc_line("0,0,512,R,0")
        r1 = parse_spc_line("1,0,512,R,0")
        assert r0.lpn != r1.lpn

    def test_blank_and_comment_lines(self):
        assert parse_spc_line("") is None
        assert parse_spc_line("   ") is None
        assert parse_spc_line("# header") is None

    @pytest.mark.parametrize("line", [
        "0,1024,4096",            # too few fields
        "x,1024,4096,R,0.5",      # bad asu
        "0,1024,4096,Q,0.5",      # bad opcode
        "0,1024,0,R,0.5",         # zero size
        "0,-5,512,R,0.5",         # negative lba
        "0,0,512,R,-1",           # negative timestamp
    ])
    def test_malformed_rejected(self, line):
        with pytest.raises(SPCFormatError):
            parse_spc_line(line)

    def test_extra_fields_tolerated(self):
        r = parse_spc_line("0,0,512,R,0.5,extra,fields")
        assert r is not None


class TestParseTrace:
    LINES = [
        "# Financial-style header",
        "0,0,2048,W,0.000",
        "0,8,2048,W,0.001",
        "0,0,2048,R,0.002",
        "",
        "1,0,4096,R,0.003",
    ]

    def test_parse_counts(self):
        t = parse_spc(self.LINES)
        assert len(t) == 4

    def test_compact_densifies_addresses(self):
        t = parse_spc(self.LINES, compact=True)
        assert t.max_lpn < 10  # original ASU stride would be huge

    def test_compact_preserves_overwrites(self):
        t = parse_spc(self.LINES, compact=True)
        # first write and the later read of ASU0/LBA0 hit the same page
        assert t[0].lpn == t[2].lpn

    def test_no_compact_keeps_asu_stride(self):
        t = parse_spc(self.LINES, compact=False)
        assert t.max_lpn >= 1 << 22

    def test_max_requests(self):
        t = parse_spc(self.LINES, max_requests=2)
        assert len(t) == 2

    def test_max_requests_zero_reads_nothing(self):
        assert len(parse_spc(self.LINES, max_requests=0)) == 0

    def test_negative_max_requests_rejected(self):
        with pytest.raises(ValueError):
            parse_spc(self.LINES, max_requests=-1)

    def test_arrivals_preserved(self):
        t = parse_spc(self.LINES)
        arrivals = [r.arrival_us for r in t]
        assert arrivals == sorted(arrivals)
        assert arrivals[1] == pytest.approx(1000.0)

    def test_parse_file(self, tmp_path):
        from repro.traces import parse_spc_file
        p = tmp_path / "t.spc"
        p.write_text("\n".join(self.LINES))
        t = parse_spc_file(str(p))
        assert len(t) == 4
