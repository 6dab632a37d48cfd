package kylix

import "testing"

// TestDerivedStreamRoundAccounting checks that a network derived with
// Node.Stream starts at its parent's tag round base and that its rounds
// advance the cluster's base, so a second Cluster.Run deriving the same
// id mints fresh tags.
func TestDerivedStreamRoundAccounting(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := []int32{1, 2}
	for run := uint32(0); run < 2; run++ {
		err := c.Run(func(n *Node) error {
			d, err := n.Stream(1)
			if err != nil {
				return err
			}
			if d.base != 2*run {
				t.Errorf("run %d: derived base %d, want %d", run, d.base, 2*run)
			}
			red, err := d.Configure(keys, keys)
			if err != nil {
				return err
			}
			_, err = red.Reduce([]float32{1, 1})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := c.roundBase.Load(), 2*(run+1); got != want {
			t.Fatalf("after run %d: cluster round base %d, want %d", run, got, want)
		}
	}
}

// TestCloseStreamForgetsDerived checks that a long-lived node's list
// of derived networks holds only its open streams.
func TestCloseStreamForgetsDerived(t *testing.T) {
	n, err := ListenNode(0, []string{"127.0.0.1:0"})
	if err != nil {
		t.Skip("cannot listen:", err)
	}
	defer n.Close()
	for _, id := range []uint16{1, 2} {
		if _, err := n.Stream(id); err != nil {
			t.Fatal(err)
		}
	}
	n.CloseStream(1)
	if len(n.derived) != 1 || n.derived[0].cfg.stream != 2 {
		t.Fatalf("after closing stream 1, derived = %d networks", len(n.derived))
	}
}
