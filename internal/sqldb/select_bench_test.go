package sqldb

import (
	"fmt"
	"testing"
)

// The five statement classes of the repo benchmark's sql-read workload
// (bench/workloads.go), over the same tables, so each can be timed and
// profiled without the harness. Each runs one cached text, so after the
// first iteration it times a re-bound plan (slot.go), not planning:
//
//	go test -run '^$' -bench Select -benchmem ./internal/sqldb/
//
// Objects per op: 3 for every class — the Result, its Rows and the row
// backing, sized from the plan's last run; a CALL's body statement runs in
// a scope its session keeps.
// A sql-read op runs one Agg or Call, 64 Point, 32 IndexTopK and one Join.
const (
	readAggSQL   = "SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE AND Quantity >= ? GROUP BY ItemID ORDER BY ItemID"
	readPointSQL = "SELECT ItemID, Quantity FROM Orders WHERE OrderID = ?"
	readTopKSQL  = "SELECT OrderID, Quantity FROM Orders WHERE CustID = ? ORDER BY Quantity DESC, OrderID LIMIT 5"
	readJoinSQL  = "SELECT i.ItemID, s.Name FROM Items i JOIN Suppliers s ON i.SupplierID = s.SupplierID WHERE s.Region = ? ORDER BY i.ItemID"
	readCallBody = "SELECT ItemID, SUM(Quantity) AS Quantity FROM Orders WHERE Approved = TRUE GROUP BY ItemID ORDER BY ItemID"
)

// readRegions are the join's parameters, built once: a run counts the
// statement's objects only.
var readRegions = [...]Value{Str("region0"), Str("region1"), Str("region2"), Str("region3")}

// newReadDB builds the sql-read schema with the given number of orders:
// 64 items, 32 suppliers in 4 regions, 8 orders per customer, quantities
// 1..20, four orders in five approved, and the approved_totals procedure.
func newReadDB(tb testing.TB, orders int) *DB {
	tb.Helper()
	db := Open("readbench")
	db.MustExec(`CREATE TABLE Orders (OrderID INTEGER PRIMARY KEY, CustID INTEGER NOT NULL, ItemID VARCHAR NOT NULL,
		Quantity INTEGER NOT NULL, Approved BOOLEAN NOT NULL)`)
	db.MustExec("CREATE INDEX orders_cust ON Orders (CustID)")
	db.MustExec("CREATE TABLE Items (ItemID VARCHAR PRIMARY KEY, SupplierID INTEGER NOT NULL, Price INTEGER NOT NULL)")
	db.MustExec("CREATE TABLE Suppliers (SupplierID INTEGER PRIMARY KEY, Name VARCHAR NOT NULL, Region VARCHAR NOT NULL)")
	db.MustExec("CREATE PROCEDURE approved_totals () AS '" + readCallBody + "'")
	s := db.Session()
	exec := func(sql string, params ...Value) {
		if _, err := s.Exec(sql, params...); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		exec("INSERT INTO Suppliers VALUES (?, ?, ?)", Int(int64(i)), Str(fmt.Sprint("supplier", i)), Str(fmt.Sprint("region", i%4)))
	}
	for i := 0; i < 64; i++ {
		exec("INSERT INTO Items VALUES (?, ?, ?)", Str(fmt.Sprint("item", 1000+i)), Int(int64(i%32)), Int(int64(1+i*7%500)))
	}
	for i := 0; i < orders; i++ {
		exec("INSERT INTO Orders VALUES (?, ?, ?, ?, ?)", Int(int64(i+1)), Int(int64(i%(orders/8))),
			Str(fmt.Sprint("item", 1000+i*13%64)), Int(int64(1+i*7%20)), Bool(i%5 != 0))
	}
	return db
}

func benchSelect(b *testing.B, sql string, param func(i int) Value) {
	s := newReadDB(b, 4096).Session()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if param == nil {
			_, err = s.Exec(sql)
		} else {
			_, err = s.Exec(sql, param(i))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectAgg(b *testing.B) {
	benchSelect(b, readAggSQL, func(i int) Value { return Int(int64(1 + i%20)) })
}

func BenchmarkSelectJoin(b *testing.B) {
	benchSelect(b, readJoinSQL, func(i int) Value { return readRegions[i%4] })
}

func BenchmarkSelectPoint(b *testing.B) {
	benchSelect(b, readPointSQL, func(i int) Value { return Int(int64(1 + i*7%4096)) })
}

func BenchmarkSelectIndexTopK(b *testing.B) {
	benchSelect(b, readTopKSQL, func(i int) Value { return Int(int64(i * 7 % 512)) })
}

func BenchmarkSelectCall(b *testing.B) {
	benchSelect(b, "CALL approved_totals()", nil)
}
