package sqldb

import (
	"fmt"
	"testing"
)

var keySink int

// BenchmarkIndexKey times the key encoder as a probe uses it: encode into
// the stack buffer, look the bucket up. 0 allocs/op is the contract that
// keeps index probes and vacuum's bucket filter allocation-free.
func BenchmarkIndexKey(b *testing.B) {
	cases := []struct {
		name string
		vals []Value
	}{
		{"int", []Value{Int(123456)}},
		{"varchar", []Value{Str("item1042")}},
		{"composite", []Value{Int(123456), Str("item1042"), Float(2.5)}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			idx := &Index{buckets: map[string][]*Row{}}
			for i := range c.vals {
				idx.colIdx = append(idx.colIdx, i)
			}
			idx.insert(&Row{Values: c.vals})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var buf keyBuf
				k := idx.rowKey(buf[:0], c.vals)
				keySink += len(idx.buckets[string(k)])
			}
		})
	}
}

// BenchmarkVacuumChurn is the sql-write transaction of the repo benchmark
// against a 4 096-row table with a primary key and one secondary index:
// an insert, four PK updates, one indexed update and a delete per
// transaction, so the table keeps its size. With 512 customers the
// indexed update touches eight rows and every ~5th transaction crosses
// vacuumDeadThreshold; with 2 it kills half of a 4 096-version bucket
// and every transaction vacuums them out of it.
func BenchmarkVacuumChurn(b *testing.B) {
	for _, custs := range []int64{512, 2} {
		b.Run(fmt.Sprintf("custs=%d", custs), func(b *testing.B) { benchVacuumChurn(b, custs) })
	}
}

func benchVacuumChurn(b *testing.B, custs int64) {
	const rows = 4096
	db := Open("churn")
	db.MustExec("CREATE TABLE Orders (OrderID INTEGER PRIMARY KEY, CustID INTEGER NOT NULL, Quantity INTEGER NOT NULL)")
	db.MustExec("CREATE INDEX orders_cust ON Orders (CustID)")
	s := db.Session()
	exec := func(sql string, params ...Value) {
		if _, err := s.Exec(sql, params...); err != nil {
			b.Fatalf("%s: %v", sql, err)
		}
	}
	for i := int64(1); i <= rows; i++ {
		exec("INSERT INTO Orders VALUES (?, ?, 1)", Int(i), Int(i%custs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := int64(1); n <= int64(b.N); n++ {
		exec("BEGIN")
		exec("INSERT INTO Orders VALUES (?, ?, 1)", Int(rows+n), Int(custs))
		for j := int64(0); j < 4; j++ {
			exec("UPDATE Orders SET Quantity = Quantity + 1 WHERE OrderID = ?", Int(1+(n*4+j)*31%rows))
		}
		exec("UPDATE Orders SET Quantity = Quantity + 1 WHERE CustID = ?", Int(n%custs))
		exec("DELETE FROM Orders WHERE OrderID = ?", Int(rows+n))
		exec("COMMIT")
	}
	b.StopTimer()
	if res := db.MustExec("SELECT COUNT(*) FROM Orders"); res.Rows[0][0].I != rows {
		b.Fatalf("table holds %v rows, want %d", res.Rows[0][0], rows)
	}
}
