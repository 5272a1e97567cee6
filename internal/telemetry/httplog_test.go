package telemetry

import (
	"strings"
	"testing"
)

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	id := AdoptRequestID("")
	if len(id) != 16 || strings.Trim(id, "0123456789abcdef") != "" {
		t.Fatalf("generated id %q, want 16 hex characters", id)
	}
	// A second request gets a different ID.
	if AdoptRequestID("") == id {
		t.Error("two requests share one generated ID")
	}
	// A generated ID is itself well-formed, so a client may echo it back.
	if got := AdoptRequestID(id); got != id {
		t.Errorf("generated ID %q not reused when echoed: %q", id, got)
	}
}

func TestRequestIDClientSupplied(t *testing.T) {
	if got := AdoptRequestID("client-id-42"); got != "client-id-42" {
		t.Errorf("well-formed client ID not reused: %q", got)
	}
	// Malformed (header-splitting, overlong) IDs are replaced, not echoed.
	for _, bad := range []string{"x y", "a\"b", strings.Repeat("z", 100), "dollar$", "a\r\nb"} {
		if got := AdoptRequestID(bad); got == bad || len(got) != 16 {
			t.Errorf("malformed ID %q adopted as %q", bad, got)
		}
	}
}
