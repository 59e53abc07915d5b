"""Unit tests for the MSR Cambridge trace parser."""

import pytest

from repro.traces import MSRFormatError, OpType, parse_msr, parse_msr_line


class TestParseLine:
    def test_basic_write(self):
        r = parse_msr_line(
            "128166372003061629,hm,0,Write,2048,4096,559"
        )
        assert r.op is OpType.WRITE
        assert r.npages == 2   # 4096 B on 2 KiB pages
        assert r.lpn % (1 << 24) == 1  # offset 2048 -> page 1

    def test_read_case_insensitive(self):
        r = parse_msr_line("1,hm,0,READ,0,512,10")
        assert r.op is OpType.READ

    def test_timestamp_conversion(self):
        r = parse_msr_line("1000,hm,0,Read,0,512,10")
        assert r.arrival_us == pytest.approx(100.0)  # 1000 ticks = 100 us

    def test_disk_separation(self):
        r0 = parse_msr_line("1,hm,0,Read,0,512,10")
        r1 = parse_msr_line("1,hm,1,Read,0,512,10")
        assert r0.lpn != r1.lpn

    def test_unaligned_spans_pages(self):
        r = parse_msr_line("1,hm,0,Read,2000,512,10")  # crosses page 0/1
        assert r.npages == 2

    def test_blank_comment_header_skipped(self):
        assert parse_msr_line("") is None
        assert parse_msr_line("# comment") is None
        assert parse_msr_line(
            "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"
        ) is None

    @pytest.mark.parametrize("line", [
        "1,hm,0,Read,0",              # too few fields
        "x,hm,0,Read,0,512,10",       # bad timestamp
        "1,hm,0,Delete,0,512,10",     # unknown op
        "1,hm,0,Read,0,0,10",         # zero size
        "1,hm,0,Read,-1,512,10",      # negative offset
    ])
    def test_malformed_rejected(self, line):
        with pytest.raises(MSRFormatError):
            parse_msr_line(line)


class TestParseTrace:
    LINES = [
        "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
        "128166372003061629,src1,0,Write,0,4096,100",
        "128166372003071629,src1,0,Write,8192,4096,100",
        "128166372003081629,src1,0,Read,0,4096,100",
        "128166372003091629,src1,1,Read,0,2048,100",
    ]

    def test_counts(self):
        t = parse_msr(self.LINES)
        assert len(t) == 4
        assert t.write_ratio > 0

    def test_rebase_time(self):
        t = parse_msr(self.LINES)
        assert t[0].arrival_us == 0.0
        assert t[1].arrival_us == pytest.approx(1000.0)

    def test_no_rebase(self):
        t = parse_msr(self.LINES, rebase_time=False)
        assert t[0].arrival_us > 1e16

    def test_compact_preserves_overwrites(self):
        t = parse_msr(self.LINES)
        # request 0 (write) and request 2 (read) hit the same pages
        assert list(t[0].pages) == list(t[2].pages)
        assert t.max_lpn < 100

    def test_max_requests(self):
        assert len(parse_msr(self.LINES, max_requests=2)) == 2

    def test_max_requests_zero_reads_nothing(self):
        assert len(parse_msr(self.LINES, max_requests=0)) == 0

    def test_negative_max_requests_rejected(self):
        with pytest.raises(ValueError):
            parse_msr(self.LINES, max_requests=-1)

    def test_parse_file(self, tmp_path):
        from repro.traces import parse_msr_file
        p = tmp_path / "t.csv"
        p.write_text("\n".join(self.LINES))
        t = parse_msr_file(str(p))
        assert len(t) == 4

    def test_replayable_through_ftl(self):
        """Parsed trace runs end-to-end through a scheme."""
        from repro.sim import DeviceSpec, run_scheme
        t = parse_msr(self.LINES)
        device = DeviceSpec(num_blocks=64, pages_per_block=16,
                            page_size=512, logical_fraction=0.6)
        result = run_scheme("LazyFTL", t, device=device)
        assert result.requests == 4
