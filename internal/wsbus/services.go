package wsbus

import (
	"fmt"
	"strconv"
	"sync"

	"wfsql/internal/rowset"
	"wfsql/internal/sqldb"
)

// OrderFromSupplierService is the paper's sample Web service: it takes an
// item type and a required quantity, "orders" the items from a supplier,
// and returns a confirmation string indicating success. Orders above the
// configured capacity are rejected, exercising the failure path.
type OrderFromSupplierService struct {
	mu       sync.Mutex
	Capacity int64 // per-call quantity limit; 0 means unlimited
	ordered  map[string]int64
}

// NewOrderFromSupplier creates the sample supplier service.
func NewOrderFromSupplier(capacity int64) *OrderFromSupplierService {
	return &OrderFromSupplierService{Capacity: capacity, ordered: map[string]int64{}}
}

// Operation declares the supplier's one operation: request parts
// ItemID and Quantity, reply part OrderConfirmation.
func (s *OrderFromSupplierService) Operation() Operation {
	return Operation{In: orderIn, Out: orderOut, Handler: s.Order}
}

var orderIn, orderOut = []string{"ItemID", "Quantity"}, []string{"OrderConfirmation"}

// Order implements the operation: [ItemID, Quantity] → [OrderConfirmation].
func (s *OrderFromSupplierService) Order(in []string) ([]string, error) {
	item := in[0]
	if item == "" {
		return nil, fmt.Errorf("OrderFromSupplier: missing ItemID")
	}
	qty, err := strconv.ParseInt(in[1], 10, 64)
	if err != nil || qty <= 0 {
		return nil, fmt.Errorf("OrderFromSupplier: bad Quantity %q", in[1])
	}
	verdict := "CONFIRMED:"
	s.mu.Lock()
	if s.Capacity > 0 && qty > s.Capacity {
		verdict = "REJECTED:"
	} else {
		s.ordered[item] += qty
	}
	s.mu.Unlock()
	return []string{verdict + item + ":" + strconv.FormatInt(qty, 10)}, nil
}

// Handle is Order on a request by part name.
func (s *OrderFromSupplierService) Handle(req Message) (Message, error) {
	out, err := s.Order(s.Operation().Pack(req))
	if err != nil {
		return nil, err
	}
	return Named(orderOut, out), nil
}

// Ordered returns the total quantity ordered for an item so far.
func (s *OrderFromSupplierService) Ordered(item string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ordered[item]
}

// sqlAdapterParams is how many parameter parts the SQL adapter declares.
const sqlAdapterParams = 8

// RegisterSQLAdapter registers the *adapter technology* of the paper's
// Figure 1: a service that encapsulates SQL-specific functionality and
// masks data management operations as a Web service. The process logic
// calling it sees only a service; data management issues stay outside the
// choreography.
//
// Request parts:
//
//	statement — the SQL text to execute
//	p1..p8    — positional parameter values (bound as strings), as many
//	            as the statement has placeholders
//
// Reply parts:
//
//	rowsAffected — for DML
//	rowset       — serialized XML RowSet, for queries
//	rows         — row count, for queries
func RegisterSQLAdapter(b *Bus, name string, db *sqldb.DB) {
	in := []string{"statement"}
	for i := 1; i <= sqlAdapterParams; i++ {
		in = append(in, "p"+strconv.Itoa(i))
	}
	b.Register(name, Operation{In: in, Out: []string{"rowsAffected", "rowset", "rows"}, Handler: func(in []string) ([]string, error) {
		stmt := in[0]
		if stmt == "" {
			return nil, fmt.Errorf("sql adapter: missing statement")
		}
		n, err := sqldb.ParamSlots(stmt)
		if err != nil {
			return nil, err
		}
		if n > sqlAdapterParams {
			return nil, fmt.Errorf("sql adapter: statement has %d placeholders, the adapter binds %d", n, sqlAdapterParams)
		}
		params := make([]sqldb.Value, n)
		for i := range params {
			params[i] = sqldb.Str(in[1+i])
		}
		res, err := db.Exec(stmt, params...)
		if err != nil {
			return nil, err
		}
		if !res.IsQuery() {
			return []string{strconv.Itoa(res.RowsAffected), "", ""}, nil
		}
		rs, err := rowset.FromResult(res)
		if err != nil {
			return nil, err
		}
		return []string{"", rs.String(), strconv.Itoa(len(res.Rows))}, nil
	}})
}
