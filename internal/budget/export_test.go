package budget

// Epochs returns how many collections are paid for.
func (l *Ledger) Epochs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.paid
}
