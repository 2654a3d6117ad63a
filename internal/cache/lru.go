package cache

import "container/list"

// memLRU is the in-memory tier: a byte-budgeted LRU over immutable values.
// Not safe for concurrent use; Cache serializes access.
type memLRU struct {
	budget  int64
	used    int64
	order   *list.List // front = most recently used; values are *memEntry
	entries map[Key]*list.Element
}

type memEntry struct {
	key   Key
	value []byte
}

// entryOverhead approximates the bookkeeping bytes per entry (key, list
// element, map slot) charged against the budget alongside the value bytes.
const entryOverhead = 128

func newMemLRU(budget int64) *memLRU {
	return &memLRU{
		budget:  budget,
		order:   list.New(),
		entries: make(map[Key]*list.Element),
	}
}

func (m *memLRU) get(key Key) ([]byte, bool) {
	el, ok := m.entries[key]
	if !ok {
		return nil, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memEntry).value, true
}

// put admits the value, evicting least-recently-used entries to stay under
// budget, and reports whether it admitted the value and how many entries it
// evicted. A resident key is not admitted again (values are immutable: same
// key implies same bytes), and neither is a value larger than the whole
// budget (it would evict everything for one entry that can never be joined
// by another).
func (m *memLRU) put(key Key, value []byte) (admitted bool, evicted int) {
	if _, ok := m.entries[key]; ok {
		return false, 0
	}
	cost := int64(len(value)) + entryOverhead
	if cost > m.budget {
		return false, 0
	}
	for m.used+cost > m.budget {
		back := m.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*memEntry)
		m.order.Remove(back)
		delete(m.entries, e.key)
		m.used -= int64(len(e.value)) + entryOverhead
		evicted++
	}
	el := m.order.PushFront(&memEntry{key: key, value: value})
	m.entries[key] = el
	m.used += cost
	return true, evicted
}

func (m *memLRU) delete(key Key) {
	el, ok := m.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*memEntry)
	m.order.Remove(el)
	delete(m.entries, key)
	m.used -= int64(len(e.value)) + entryOverhead
}

func (m *memLRU) len() int { return len(m.entries) }
