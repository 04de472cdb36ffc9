use crate::DatasetError;
use sj_geo::{apply_policy, Extent, Rect, Validated, ValidationPolicy, ValidationReport};
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Field names of one CSV record, in column order.
const CSV_FIELDS: [&str; 4] = ["xlo", "ylo", "xhi", "yhi"];

/// Parses the four corner fields of one CSV record, naming the offending
/// field on failure. Extra trailing fields are ignored for compatibility
/// with annotated exports.
fn parse_csv_fields(lineno: usize, line: &str) -> Result<(f64, f64, f64, f64), DatasetError> {
    let mut parts = line.split(',');
    let mut vals = [0.0f64; 4];
    for (i, field) in CSV_FIELDS.iter().enumerate() {
        let raw = parts.next().ok_or_else(|| DatasetError::Parse {
            line: lineno,
            field,
            detail: "missing field (expected 4 comma-separated values)".to_string(),
        })?;
        vals[i] = raw.trim().parse::<f64>().map_err(|e| DatasetError::Parse {
            line: lineno,
            field,
            detail: format!("{e} (got {:?})", raw.trim()),
        })?;
    }
    Ok((vals[0], vals[1], vals[2], vals[3]))
}

/// Calls `f(lineno, line)` for every non-blank line of `r`, reading
/// into one reused buffer. Line numbers are 1-based and count blank
/// lines; a trailing `\n` or `\r\n` is stripped, as
/// [`BufRead::lines`] does, and a line that is not UTF-8 fails with its
/// error.
fn for_each_line<R: BufRead, E: From<io::Error>>(
    mut r: R,
    mut f: impl FnMut(usize, &str) -> Result<(), E>,
) -> Result<(), E> {
    let mut buf = String::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if r.read_line(&mut buf)? == 0 {
            return Ok(());
        }
        lineno += 1;
        let line = buf
            .strip_suffix('\n')
            .map_or(buf.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
        if !line.trim().is_empty() {
            f(lineno, line)?;
        }
    }
}

/// A named collection of MBRs living in an extent.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name, e.g. `"TS"` or `"SCRC"`.
    pub name: String,
    /// Spatial universe (normally the unit square for presets).
    pub extent: Extent,
    /// The MBRs.
    pub rects: Vec<Rect>,
}

/// Whole-dataset statistics: the parameters of the Aref–Samet parametric
/// model (paper Eq. 1) plus general descriptive measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    /// Number of data items `N`.
    pub count: usize,
    /// Data coverage `C`: sum of item areas over the extent area.
    pub coverage: f64,
    /// Average item width `W`.
    pub avg_width: f64,
    /// Average item height `H`.
    pub avg_height: f64,
    /// Fraction of items that are degenerate (points/segments).
    pub degenerate_fraction: f64,
}

impl Dataset {
    /// Creates a dataset, validating every rectangle is finite.
    ///
    /// # Panics
    /// Panics if any rectangle has a non-finite coordinate.
    #[must_use]
    pub fn new(name: impl Into<String>, extent: Extent, rects: Vec<Rect>) -> Self {
        let name = name.into();
        for (i, r) in rects.iter().enumerate() {
            assert!(r.is_finite(), "dataset {name}: rect {i} is non-finite");
        }
        Self {
            name,
            extent,
            rects,
        }
    }

    /// Number of data items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// `true` when the dataset holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// Computes the whole-dataset statistics used by the parametric model.
    #[must_use]
    pub fn stats(&self) -> DatasetStats {
        let n = self.rects.len();
        if n == 0 {
            return DatasetStats {
                count: 0,
                coverage: 0.0,
                avg_width: 0.0,
                avg_height: 0.0,
                degenerate_fraction: 0.0,
            };
        }
        let mut area_sum = 0.0;
        let mut w_sum = 0.0;
        let mut h_sum = 0.0;
        let mut degenerate = 0usize;
        for r in &self.rects {
            area_sum += r.area();
            w_sum += r.width();
            h_sum += r.height();
            if r.is_degenerate() {
                degenerate += 1;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let nf = n as f64;
        DatasetStats {
            count: n,
            coverage: area_sum / self.extent.area(),
            avg_width: w_sum / nf,
            avg_height: h_sum / nf,
            degenerate_fraction: degenerate as f64 / nf,
        }
    }

    /// Writes the dataset as CSV (`xlo,ylo,xhi,yhi` per line, full `f64`
    /// round-trip precision) to `w`.
    ///
    /// # Errors
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut out = BufWriter::new(w);
        for r in &self.rects {
            writeln!(out, "{:?},{:?},{:?},{:?}", r.xlo, r.ylo, r.xhi, r.yhi)?;
        }
        out.flush()
    }

    /// Reads a dataset from CSV written by [`Dataset::write_csv`]. The
    /// extent is recomputed from the data.
    ///
    /// # Errors
    /// Returns `InvalidData` on malformed lines and propagates I/O errors.
    pub fn read_csv<R: BufRead>(name: impl Into<String>, r: R) -> io::Result<Self> {
        let mut rects = Vec::new();
        for_each_line(r, |lineno, line| {
            let (xlo, ylo, xhi, yhi) = parse_csv_fields(lineno, line).map_err(io::Error::from)?;
            for (field, v) in CSV_FIELDS.iter().zip([xlo, ylo, xhi, yhi]) {
                if !v.is_finite() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("line {lineno}, field {field}: non-finite coordinate"),
                    ));
                }
            }
            rects.push(Rect::new(xlo, ylo, xhi, yhi));
            Ok(())
        })?;
        let extent = Extent::of_rects(&rects).unwrap_or_else(Extent::unit);
        Ok(Self::new(name, extent, rects))
    }

    /// Reads a CSV dataset under a [`ValidationPolicy`], optionally
    /// checking every record against a declared `extent`. Unlike
    /// [`Dataset::read_csv`], inverted raw corners are *detected* (not
    /// silently reordered), and an input with no surviving records is an
    /// explicit [`DatasetError::Empty`].
    ///
    /// # Errors
    /// [`DatasetError::Parse`] names the line and field of malformed
    /// input; [`DatasetError::Invalid`] is returned under
    /// [`ValidationPolicy::Strict`] for geometric defects;
    /// [`DatasetError::Empty`] when nothing survives validation.
    pub fn read_csv_validated<R: BufRead>(
        name: impl Into<String>,
        r: R,
        policy: ValidationPolicy,
        extent: Option<Extent>,
    ) -> Result<(Self, ValidationReport), DatasetError> {
        let mut rects = Vec::new();
        let mut report = ValidationReport::default();
        for_each_line(r, |lineno, line| {
            let raw = parse_csv_fields(lineno, line)?;
            report.checked += 1;
            match apply_policy(policy, raw, extent.as_ref()) {
                Ok(Validated::Accepted(rect)) => {
                    report.accepted += 1;
                    rects.push(rect);
                }
                Ok(Validated::Repaired(rect)) => {
                    report.repaired += 1;
                    rects.push(rect);
                }
                Ok(Validated::Skipped(_)) => report.skipped += 1,
                Err(issue) => {
                    return Err(DatasetError::Invalid {
                        line: lineno,
                        issue,
                    })
                }
            }
            Ok(())
        })?;
        if rects.is_empty() {
            return Err(DatasetError::Empty);
        }
        let extent = extent
            .or_else(|| Extent::of_rects(&rects))
            .unwrap_or_else(Extent::unit);
        Ok((
            Self {
                name: name.into(),
                extent,
                rects,
            },
            report,
        ))
    }

    /// Loads a CSV file under a [`ValidationPolicy`], naming the dataset
    /// after the file stem. See [`Dataset::read_csv_validated`].
    ///
    /// # Errors
    /// Propagates file-open errors as [`DatasetError::Io`] and all
    /// validation errors of [`Dataset::read_csv_validated`].
    pub fn load_csv_validated(
        path: &Path,
        policy: ValidationPolicy,
        extent: Option<Extent>,
    ) -> Result<(Self, ValidationReport), DatasetError> {
        let name = path.file_stem().map_or_else(
            || "dataset".to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        let f = std::fs::File::open(path)?;
        Self::read_csv_validated(name, io::BufReader::new(f), policy, extent)
    }

    /// Saves the dataset to a CSV file.
    ///
    /// # Errors
    /// Propagates file-creation and write errors.
    pub fn save_csv(&self, path: &Path) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        self.write_csv(&mut f)
    }

    /// Loads a dataset from a CSV file, naming it after the file stem.
    ///
    /// # Errors
    /// Propagates file-open and parse errors.
    pub fn load_csv(path: &Path) -> io::Result<Self> {
        let name = path.file_stem().map_or_else(
            || "dataset".to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        let f = std::fs::File::open(path)?;
        Self::read_csv(name, io::BufReader::new(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_geo::Point;

    fn sample() -> Dataset {
        Dataset::new(
            "sample",
            Extent::unit(),
            vec![
                Rect::new(0.0, 0.0, 0.5, 0.5),
                Rect::new(0.25, 0.25, 0.75, 0.75),
                Rect::from_point(Point::new(0.9, 0.9)),
            ],
        )
    }

    #[test]
    fn stats_parametric_parameters() {
        let ds = sample();
        let s = ds.stats();
        assert_eq!(s.count, 3);
        assert!((s.coverage - 0.5).abs() < 1e-12); // 0.25 + 0.25 + 0
        assert!((s.avg_width - (0.5 + 0.5 + 0.0) / 3.0).abs() < 1e-12);
        assert!((s.avg_height - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.degenerate_fraction - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_dataset() {
        let ds = Dataset::new("empty", Extent::unit(), vec![]);
        let s = ds.stats();
        assert_eq!(s.count, 0);
        assert_eq!(s.coverage, 0.0);
    }

    #[test]
    fn csv_roundtrip_preserves_bits() {
        let ds = sample();
        let mut buf = Vec::new();
        ds.write_csv(&mut buf).unwrap();
        let back = Dataset::read_csv("sample", &buf[..]).unwrap();
        assert_eq!(back.rects, ds.rects);
    }

    /// `read_csv_validated` under `Repair`, as `(rects, checked)`.
    fn read_repaired(input: &[u8]) -> Result<(Vec<Rect>, usize), DatasetError> {
        Dataset::read_csv_validated("x", input, ValidationPolicy::Repair, None)
            .map(|(ds, report)| (ds.rects, report.checked))
    }

    #[test]
    fn csv_line_endings_and_blank_lines() {
        let want = vec![
            Rect::new(0.0, 0.0, 0.5, 0.5),
            Rect::new(0.25, 0.5, 1.0, 1.0),
        ];
        for input in [
            "0,0,0.5,0.5\n0.25,0.5,1,1\n",
            "0,0,0.5,0.5\r\n0.25,0.5,1,1\r\n",
            "0,0,0.5,0.5\n0.25,0.5,1,1",
            "0,0,0.5,0.5\r\n0.25,0.5,1,1\r",
            "\n0,0,0.5,0.5\n   \n\r\n0.25,0.5,1,1\n\n",
        ] {
            let plain = Dataset::read_csv("x", input.as_bytes()).unwrap();
            assert_eq!(plain.rects, want, "{input:?}");
            assert_eq!(read_repaired(input.as_bytes()).unwrap(), (want.clone(), 2));
        }
        // Blank lines keep their numbers: the bad record is line 4.
        let input = "0,0,1,1\n\n  \r\n0,0,oops,1\r\n";
        let err = Dataset::read_csv("x", input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 4, field xhi"), "{err}");
        match read_repaired(input.as_bytes()).unwrap_err() {
            DatasetError::Parse { line: 4, field, .. } => assert_eq!(field, "xhi"),
            other => panic!("expected a parse error at line 4, got {other}"),
        }
        // Only blank lines: nothing read, which the validated reader rejects.
        assert!(Dataset::read_csv("x", "\n\r\n \n".as_bytes())
            .unwrap()
            .is_empty());
        assert!(matches!(
            read_repaired(b"\n\r\n \n"),
            Err(DatasetError::Empty)
        ));
    }

    #[test]
    fn csv_non_utf8_line_is_the_readers_error() {
        let input: &[u8] = b"0,0,1,1\n0,0,\xff,1\n";
        let reference = input.lines().nth(1).unwrap().unwrap_err();
        let err = Dataset::read_csv("x", input).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), reference.to_string());
        match read_repaired(input).unwrap_err() {
            DatasetError::Io(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert_eq!(e.to_string(), reference.to_string());
            }
            other => panic!("expected the reader's I/O error, got {other}"),
        }
    }

    #[test]
    fn csv_rejects_garbage() {
        let err = Dataset::read_csv("x", "1.0,2.0,oops,4.0\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("line 1") && err.to_string().contains("field xhi"),
            "error must name line and field: {err}"
        );
        let err = Dataset::read_csv("x", "1.0,2.0\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("field xhi"), "{err}");
    }

    #[test]
    fn validated_csv_strict_rejects_inversion_with_line() {
        let input = "0,0,1,1\n0.9,0.0,0.1,1.0\n";
        let err =
            Dataset::read_csv_validated("x", input.as_bytes(), ValidationPolicy::Strict, None)
                .unwrap_err();
        match err {
            DatasetError::Invalid { line, issue } => {
                assert_eq!(line, 2);
                assert_eq!(issue, sj_geo::RectIssue::Inverted { axis: 'x' });
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn validated_csv_repair_fixes_and_reports() {
        let input = "0,0,1,1\n0.9,0.0,0.1,1.0\nnan,0,1,1\n";
        let (ds, report) =
            Dataset::read_csv_validated("x", input.as_bytes(), ValidationPolicy::Repair, None)
                .unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.rects[1], Rect::new(0.1, 0.0, 0.9, 1.0));
        assert_eq!(report.checked, 3);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.repaired, 1);
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn validated_csv_skip_drops_invalid() {
        let input = "0,0,1,1\ninf,0,1,1\n";
        let (ds, report) =
            Dataset::read_csv_validated("x", input.as_bytes(), ValidationPolicy::Skip, None)
                .unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn validated_csv_empty_is_an_error() {
        assert!(matches!(
            Dataset::read_csv_validated("x", "\n\n".as_bytes(), ValidationPolicy::Strict, None),
            Err(DatasetError::Empty)
        ));
        // A file whose every record is dropped is also empty.
        assert!(matches!(
            Dataset::read_csv_validated(
                "x",
                "nan,0,1,1\n".as_bytes(),
                ValidationPolicy::Skip,
                None
            ),
            Err(DatasetError::Empty)
        ));
    }

    #[test]
    fn validated_csv_checks_declared_extent() {
        let input = "0,0,1,1\n-0.5,0,0.5,0.5\n";
        let err = Dataset::read_csv_validated(
            "x",
            input.as_bytes(),
            ValidationPolicy::Strict,
            Some(Extent::unit()),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            DatasetError::Invalid {
                line: 2,
                issue: sj_geo::RectIssue::OutOfExtent
            }
        ));
        let (ds, report) = Dataset::read_csv_validated(
            "x",
            input.as_bytes(),
            ValidationPolicy::Repair,
            Some(Extent::unit()),
        )
        .unwrap();
        assert_eq!(ds.rects[1], Rect::new(0.0, 0.0, 0.5, 0.5));
        assert_eq!(report.repaired, 1);
    }

    #[test]
    fn csv_skips_blank_lines() {
        let ds = Dataset::read_csv("x", "\n0,0,1,1\n\n".as_bytes()).unwrap();
        assert_eq!(ds.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn new_rejects_nan() {
        let _ = Dataset::new(
            "bad",
            Extent::unit(),
            vec![Rect {
                xlo: f64::NAN,
                ylo: 0.0,
                xhi: 1.0,
                yhi: 1.0,
            }],
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sj_datagen_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        let ds = sample();
        ds.save_csv(&path).unwrap();
        let back = Dataset::load_csv(&path).unwrap();
        assert_eq!(back.name, "sample");
        assert_eq!(back.rects, ds.rects);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Binary dataset format: `SJDS` magic, version, count, then raw
/// little-endian `f64` quadruples. Loads paper-scale datasets (millions
/// of MBRs) an order of magnitude faster than CSV.
impl Dataset {
    const BIN_MAGIC: [u8; 4] = *b"SJDS";
    const BIN_VERSION: u8 = 1;

    /// Writes the binary representation.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_bin<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut out = BufWriter::new(w);
        out.write_all(&Self::BIN_MAGIC)?;
        out.write_all(&[Self::BIN_VERSION])?;
        out.write_all(&(self.rects.len() as u64).to_le_bytes())?;
        for r in &self.rects {
            for v in [r.xlo, r.ylo, r.xhi, r.yhi] {
                out.write_all(&v.to_le_bytes())?;
            }
        }
        out.flush()
    }

    /// Reads a dataset written by [`Self::write_bin`]. The extent is
    /// recomputed from the data.
    ///
    /// # Errors
    /// Returns `InvalidData` on malformed input and propagates I/O errors.
    pub fn read_bin<R: io::Read>(name: impl Into<String>, mut r: R) -> io::Result<Self> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut header = [0u8; 4 + 1 + 8];
        r.read_exact(&mut header)
            .map_err(|_| bad("truncated header"))?;
        if header[..4] != Self::BIN_MAGIC {
            return Err(bad("bad magic"));
        }
        if header[4] != Self::BIN_VERSION {
            return Err(bad("unsupported version"));
        }
        #[expect(
            clippy::expect_used,
            reason = "header[5..13] is 8 bytes of a fixed 13-byte array, try_into cannot fail"
        )]
        let count = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
        let count = usize::try_from(count).map_err(|_| bad("count overflows usize"))?;
        let mut payload = Vec::new();
        r.read_to_end(&mut payload)?;
        if payload.len() != count * 32 {
            return Err(bad("payload size mismatch"));
        }
        let mut rects = Vec::with_capacity(count);
        for chunk in payload.chunks_exact(32) {
            #[expect(
                clippy::expect_used,
                reason = "chunks_exact(32) yields 32-byte chunks and i <= 3, so the 8-byte window is in range"
            )]
            let f = |i: usize| {
                f64::from_le_bytes(chunk[i * 8..(i + 1) * 8].try_into().expect("8 bytes"))
            };
            let rect = Rect {
                xlo: f(0),
                ylo: f(1),
                xhi: f(2),
                yhi: f(3),
            };
            if !rect.is_finite() || rect.xhi < rect.xlo || rect.yhi < rect.ylo {
                return Err(bad("invalid rectangle"));
            }
            rects.push(rect);
        }
        let extent = Extent::of_rects(&rects).unwrap_or_else(Extent::unit);
        Ok(Self::new(name, extent, rects))
    }

    /// Saves the dataset in binary form.
    ///
    /// # Errors
    /// Propagates file-creation and write errors.
    pub fn save_bin(&self, path: &Path) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        self.write_bin(&mut f)
    }

    /// Loads a binary dataset file, naming it after the file stem.
    ///
    /// # Errors
    /// Propagates file-open and decode errors.
    pub fn load_bin(path: &Path) -> io::Result<Self> {
        let name = path.file_stem().map_or_else(
            || "dataset".to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        let f = std::fs::File::open(path)?;
        Self::read_bin(name, io::BufReader::new(f))
    }
}

#[cfg(test)]
mod bin_format_tests {
    use super::*;
    use sj_geo::Point;

    fn sample() -> Dataset {
        Dataset::new(
            "bin_sample",
            Extent::unit(),
            vec![
                Rect::new(0.125, 0.25, 0.5, 0.75),
                Rect::from_point(Point::new(0.9, 0.1)),
                Rect::new(1e-12, 0.0, 0.3333333333333333, 0.1),
            ],
        )
    }

    #[test]
    fn bin_roundtrip_is_bit_exact() {
        let ds = sample();
        let mut buf = Vec::new();
        ds.write_bin(&mut buf).unwrap();
        let back = Dataset::read_bin("bin_sample", &buf[..]).unwrap();
        assert_eq!(back.rects, ds.rects);
    }

    #[test]
    fn bin_rejects_corruption() {
        let ds = sample();
        let mut buf = Vec::new();
        ds.write_bin(&mut buf).unwrap();
        assert!(Dataset::read_bin("x", &buf[..buf.len() - 1]).is_err());
        assert!(Dataset::read_bin("x", &buf[..5]).is_err());
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(Dataset::read_bin("x", &bad_magic[..]).is_err());
        let mut bad_version = buf.clone();
        bad_version[4] = 99;
        assert!(Dataset::read_bin("x", &bad_version[..]).is_err());
        // NaN payload must be rejected.
        let mut nan_payload = buf.clone();
        nan_payload[13..21].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(Dataset::read_bin("x", &nan_payload[..]).is_err());
    }

    #[test]
    fn bin_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sj_datagen_bin_test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.bin");
        let ds = sample();
        ds.save_bin(&path).unwrap();
        let back = Dataset::load_bin(&path).unwrap();
        assert_eq!(back.name, "sample");
        assert_eq!(back.rects, ds.rects);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dataset_bin_roundtrip() {
        let ds = Dataset::new("empty", Extent::unit(), vec![]);
        let mut buf = Vec::new();
        ds.write_bin(&mut buf).unwrap();
        let back = Dataset::read_bin("empty", &buf[..]).unwrap();
        assert!(back.is_empty());
    }
}
